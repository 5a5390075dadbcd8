(* Crash-recovery torture harness.

   One torture run is a bank-transfer workload over a fully persistent
   stack — slotted pages behind a small buffer pool, segment-directory
   WAL — with a fault armed at some I/O site.  When the fault fires as
   [Fault.Crash], the harness treats it as power loss with full
   fidelity:

     - the WAL's staging buffer and the buffer pool's dirty frames are
       discarded ([Log.crash], [Persistent_store.crash_and_reopen]) —
       only bytes that reached the files survive;
     - the log is re-read from disk ([Log.load_dir]: torn-tail truncation +
       CRC verification) and [Recovery.recover] repeats history and
       undoes losers.

   Each transfer also enqueues one small item onto an audit queue, so
   the sweeps cover the enqueue log shape too: item-only records
   redone as appends, after a full image of the queue once per
   checkpoint interval.

   The durability invariants checked after every recovery:

     1. every *acknowledged* commit (E.commit returned true) is a
        recovery winner — its effects are present;
     2. no loser effect is visible: each account holds exactly the
        initial balance plus the winners' transfer deltas, and the
        audit queue holds exactly one item per winner;
     3. the bank total is conserved;
     4. optionally, recovery is idempotent (recovering again changes
        nothing).

   Everything is deterministic in the spec seed: the transfer plan, the
   cooperative schedule, and the fault schedule, so any failure
   reproduces from its seed. *)

module E = Asset_core.Engine
module Runtime = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Log = Asset_wal.Log
module Recovery = Asset_wal.Recovery
module Pstore = Asset_storage.Persistent_store
module Store = Asset_storage.Store
module Value = Asset_storage.Value
module Fault = Asset_fault.Fault
module Rng = Asset_util.Rng
module Tid = Asset_util.Id.Tid

(* Application-level failpoint for the retry workload: fired at the top
   of every transfer body, modelling a transient application failure
   (the clean abort-and-retry path, as opposed to the crash sites in
   the storage layers). *)
let site_op = Fault.register "workload.op"

type spec = {
  accounts : int;
  balance : int;
  n_txns : int;
  seed : int;
  page_size : int;
  pool_capacity : int;
  segment_bytes : int; (* WAL segment rotation size *)
  checkpoint_log_bytes : int; (* > 0: commit-path fuzzy-checkpoint trigger *)
}

let default_spec =
  {
    accounts = 16;
    balance = 1_000;
    n_txns = 12;
    seed = 42;
    page_size = 512;
    pool_capacity = 4;
    segment_bytes = 1 lsl 20;
    checkpoint_log_bytes = 0;
  }

type transfer = { src : int; dst : int; amount : int }

(* The audit queue sits just past the accounts.  Its items are a few
   bytes each, so a whole run's queue fits in one page of the smallest
   spec the sweeps use. *)
let audit spec = Asset_util.Id.Oid.of_int (spec.accounts + 1)
let audit_item i = "t" ^ string_of_int i

(* The torture transfer: the bank's read-modify-write transfer plus one
   audit enqueue. *)
let transfer_body db spec i tr () =
  Bank.transfer db ~from_:tr.src ~to_:tr.dst ~amount:tr.amount ();
  E.enqueue db (audit spec) (audit_item i)

(* The scripted transfer plan, deterministic in the seed.  Recorded up
   front so the invariant check can recompute each winner's effect. *)
let plan spec =
  let rng = Rng.create spec.seed in
  Array.init spec.n_txns (fun _ ->
      let src = 1 + Rng.int rng spec.accounts in
      let dst = 1 + Rng.int rng spec.accounts in
      { src; dst; amount = 1 + Rng.int rng 100 })

type outcome = {
  crashed : string option; (* failpoint site of the simulated power loss *)
  acked : bool array; (* per transaction: E.commit returned true *)
  tids : Tid.t array;
  report : Recovery.report;
  recovery_s : float;
  recovery_crashes : int; (* power losses *during* recovery, each retried *)
  log_length : int; (* records in the recovered log *)
  forces : int; (* log forces before power-off *)
  failures : string list; (* violated durability invariants, empty = pass *)
}

let fresh_paths =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let base =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "asset-torture-%d-%d" (Unix.getpid ()) !counter)
    in
    (base ^ ".pages", base ^ ".wal")

(* [durable_commits] supplements the report's winner list: once a
   fuzzy checkpoint retires the log prefix, recovery's scan (correctly)
   starts at the anchor and its winners cover only the tail — commits
   wholly below the watermark are durable through the checkpoint's
   flush and invisible to analysis.  The harness captures them from the
   pre-crash in-memory log (retirement is disk-only), bounded by the
   forced LSN so nothing volatile counts. *)
let check spec transfers (tids : Tid.t array) acked (report : Recovery.report) ~durable_commits
    store =
  let failures = ref [] in
  let addf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let winner t =
    List.exists (Tid.equal t) report.winners || List.exists (Tid.equal t) durable_commits
  in
  Array.iteri
    (fun i t -> if acked.(i) && not (winner t) then addf "txn %d acknowledged but not durable" i)
    tids;
  let expected = Array.make (spec.accounts + 1) spec.balance in
  Array.iteri
    (fun i t ->
      if (not (Tid.is_null t)) && winner t then begin
        let tr = transfers.(i) in
        expected.(tr.src) <- expected.(tr.src) - tr.amount;
        expected.(tr.dst) <- expected.(tr.dst) + tr.amount
      end)
    tids;
  let total = ref 0 in
  for a = 1 to spec.accounts do
    match Store.read store (Bank.account a) with
    | Some v ->
        let got = Value.to_int v in
        total := !total + got;
        if got <> expected.(a) then addf "account %d holds %d, expected %d" a got expected.(a)
    | None -> addf "account %d missing after recovery" a
  done;
  if !total <> spec.accounts * spec.balance then
    addf "balance not conserved: %d, expected %d" !total (spec.accounts * spec.balance);
  let expected_audit =
    List.concat
      (List.mapi
         (fun i t -> if (not (Tid.is_null t)) && winner t then [ audit_item i ] else [])
         (Array.to_list tids))
  in
  (match Store.read store (audit spec) with
  | Some v ->
      let got = Value.to_queue v in
      if List.sort compare got <> List.sort compare expected_audit then
        addf "audit queue holds [%s], expected one item per winner [%s]" (String.concat ";" got)
          (String.concat ";" expected_audit)
  | None -> addf "audit queue missing after recovery");
  List.rev !failures

let sorted_snapshot store =
  Store.dump store |> List.map (fun (oid, v) -> (oid, Value.to_string v)) |> List.sort compare

(* One full torture run: set up a clean bank, arm faults via [arm],
   run every transfer with its own committer fiber, simulate power loss
   if a crash fires, recover (retrying if a fault armed by
   [arm_recovery] crashes recovery itself — each retry is another full
   power loss), and check the durability invariants. *)
let run_once ?(arm = fun () -> ()) ?(arm_recovery = fun () -> ()) ?(check_idempotent = false) spec =
  Fault.reset_all ();
  let pages_path, wal_path = fresh_paths () in
  let ps = Pstore.create ~page_size:spec.page_size ~pool_capacity:spec.pool_capacity pages_path in
  let store = Pstore.to_store ps in
  for a = 1 to spec.accounts do
    Store.write store (Bank.account a) (Value.of_int spec.balance)
  done;
  Store.write store (audit spec) (Value.of_queue []);
  Store.flush store;
  let log = Log.create_dir ~segment_bytes:spec.segment_bytes wal_path in
  let config = { E.default_config with checkpoint_log_bytes = spec.checkpoint_log_bytes } in
  let db = E.create ~config ~log store in
  let transfers = plan spec in
  let tids = Array.make spec.n_txns Tid.null in
  let acked = Array.make spec.n_txns false in
  arm ();
  let crashed =
    let main () =
      Array.iteri (fun i tr -> tids.(i) <- E.initiate db (transfer_body db spec i tr)) transfers;
      Array.iter (fun t -> ignore (E.begin_ db t)) tids;
      Array.iteri
        (fun i t ->
          E.spawn db ~label:("committer-" ^ string_of_int i) (fun () ->
              if E.commit db t then acked.(i) <- true))
        tids;
      E.await_terminated db (Array.to_list tids)
    in
    match Runtime.run db main with
    | { Runtime.result = Ok (); _ } -> None
    | { Runtime.result = Error (Fault.Crash site | Sched.Fiber_failed (_, Fault.Crash site)); _ } ->
        Some site
    | { Runtime.result = Error e; _ } -> raise e
    | exception Fault.Crash site ->
        (* A crash in the post-run quiescence flush (Runtime's own
           flush_pending_commits). *)
        Some site
  in
  (* The durably committed tids, read off the pre-crash in-memory log:
     every Commit record at or below the forced LSN survived power
     loss.  (Prefix-ordered durability: a checkpoint's End_ckpt force
     covers every earlier commit, so commits below a retirement
     watermark are always included here.) *)
  let durable_commits =
    let fl = Log.forced_lsn log in
    let acc = ref [] in
    Log.iter log (fun lsn r ->
        match r with
        | Asset_wal.Record.Commit ts when lsn <= fl -> acc := ts @ !acc
        | _ -> ());
    !acc
  in
  let forces = Log.force_count log in
  (* Power off: disarm everything, lose all volatile state. *)
  Fault.reset_all ();
  (match crashed with Some _ -> Log.crash log | None -> Log.close log);
  Pstore.crash_and_reopen ps;
  (* Power on: reload the log from disk and recover.  [arm_recovery]
     may arm a crash at a recovery site; when it fires the harness
     powers off again (partial redo that reached disk through pool
     eviction stays — repeat-history must converge over it) and
     retries from a fresh load. *)
  arm_recovery ();
  let rlog = ref (Log.load_dir wal_path) in
  let recovery_crashes = ref 0 in
  let t0 = Unix.gettimeofday () in
  let rec recover_attempt n =
    match Recovery.recover !rlog store with
    | report -> report
    | exception Fault.Crash _ when n < 3 ->
        incr recovery_crashes;
        Fault.reset_all ();
        Log.crash !rlog;
        Pstore.crash_and_reopen ps;
        rlog := Log.load_dir wal_path;
        recover_attempt (n + 1)
  in
  let report = recover_attempt 0 in
  let recovery_s = Unix.gettimeofday () -. t0 in
  (* Recovery survived: disarm any recovery-site fault still pending so
     the idempotence oracle below runs fault-free. *)
  Fault.reset_all ();
  let rlog = !rlog in
  let failures = check spec transfers tids acked report ~durable_commits store in
  let failures =
    if check_idempotent then begin
      let before = sorted_snapshot store in
      ignore (Recovery.recover rlog store);
      if sorted_snapshot store <> before then failures @ [ "recovery not idempotent" ]
      else failures
    end
    else failures
  in
  let log_length = Log.length rlog in
  Log.close rlog;
  Pstore.close ps;
  Sys.remove pages_path;
  Log.remove_dir wal_path;
  {
    crashed;
    acked;
    tids;
    report;
    recovery_s;
    recovery_crashes = !recovery_crashes;
    log_length;
    forces;
    failures;
  }

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)

type sweep = {
  boundaries : int; (* WAL records in the fault-free run *)
  crashes : int; (* runs that actually lost power *)
  runs : int;
  sweep_failures : (string * string list) list; (* (schedule, violations) *)
  total_recovery_s : float;
}

(* Crash at *every* WAL record boundary: a fault-free reference run
   counts the appends, then one run per k crashes at the k-th append.
   The workload is deterministic, so run k's first k-1 appends are
   exactly the reference run's. *)
let crash_at_every_boundary ?(check_idempotent = false) spec =
  let clean = run_once spec in
  let boundaries = clean.log_length in
  let crashes = ref 0 and failures = ref [] and total_rec = ref 0.0 in
  (match clean.failures with
  | [] -> ()
  | fs -> failures := [ ("fault-free", fs) ]);
  for k = 1 to boundaries do
    let arm () = ignore (Fault.arm_name "wal.append" (Fault.Crash_nth k)) in
    let r = run_once ~arm ~check_idempotent spec in
    if r.crashed <> None then incr crashes;
    total_rec := !total_rec +. r.recovery_s;
    if r.failures <> [] then
      failures := (Printf.sprintf "wal.append@%d" k, r.failures) :: !failures
  done;
  {
    boundaries;
    crashes = !crashes;
    runs = boundaries + 1;
    sweep_failures = List.rev !failures;
    total_recovery_s = !total_rec;
  }

(* The site pool for seeded random crash schedules.  pager.torn_write
   is deliberately absent: pages carry no checksums yet, so a torn page
   is undetectable at rebuild time (see DESIGN.md); it is exercised by
   the pager-level unit tests instead. *)
let random_sites =
  [|
    "wal.append";
    "wal.torn_write";
    "wal.force";
    "wal.after_force";
    "pager.write_page";
    "pool.flush_frame";
    "pstore.write";
  |]

(* One seeded random-crash schedule: pick a site and a hit count from
   the seed, vary the workload seed alongside, run, recover, check. *)
let random_crash_schedule ?check_idempotent ~schedule_seed spec =
  let rng = Rng.create (0x7073 + schedule_seed) in
  let site = random_sites.(Rng.int rng (Array.length random_sites)) in
  let nth = 1 + Rng.int rng 40 in
  let spec = { spec with seed = spec.seed + schedule_seed } in
  let arm () = ignore (Fault.arm_name site (Fault.Crash_nth nth)) in
  let r = run_once ~arm ?check_idempotent spec in
  (Printf.sprintf "%s@%d seed=%d" site nth spec.seed, r)

let random_crash_schedules ?check_idempotent ~n spec =
  let crashes = ref 0 and failures = ref [] and total_rec = ref 0.0 in
  for s = 1 to n do
    let label, r = random_crash_schedule ?check_idempotent ~schedule_seed:s spec in
    if r.crashed <> None then incr crashes;
    total_rec := !total_rec +. r.recovery_s;
    if r.failures <> [] then failures := (label, r.failures) :: !failures
  done;
  {
    boundaries = 0;
    crashes = !crashes;
    runs = n;
    sweep_failures = List.rev !failures;
    total_recovery_s = !total_rec;
  }

(* ------------------------------------------------------------------ *)
(* Durability schedules: fuzzy checkpoints, retirement, redo            *)

(* The crash windows specific to the sustained-durability machinery.
   The wal.ckpt.* and wal.retire.* sites fire from the commit path's
   checkpoint trigger during the workload; recovery.redo only fires
   during recovery itself, so schedules picking it arm after
   power-off. *)
let durability_sites =
  [|
    "wal.ckpt.begin";
    "wal.ckpt.flush";
    "wal.ckpt.end";
    "wal.retire.manifest";
    "wal.retire.unlink";
    "wal.retire.sync_dir";
    "recovery.redo";
  |]

(* One seeded durability schedule: small WAL segments, an aggressive
   checkpoint trigger, and a crash armed at one of the checkpoint /
   retirement / redo windows. *)
let random_durability_schedule ?check_idempotent ~schedule_seed spec =
  let rng = Rng.create (0xd07a + schedule_seed) in
  let site = durability_sites.(Rng.int rng (Array.length durability_sites)) in
  let nth = 1 + Rng.int rng 4 in
  let spec =
    {
      spec with
      seed = spec.seed + schedule_seed;
      n_txns = max spec.n_txns 16;
      segment_bytes = 512 + (256 * Rng.int rng 4);
      checkpoint_log_bytes = 768 + (256 * Rng.int rng 4);
    }
  in
  let do_arm () = ignore (Fault.arm_name site (Fault.Crash_nth nth)) in
  let arm, arm_recovery =
    if site = "recovery.redo" then ((fun () -> ()), do_arm) else (do_arm, fun () -> ())
  in
  let r = run_once ~arm ~arm_recovery ?check_idempotent spec in
  ( Printf.sprintf "%s@%d seg=%d ckpt=%d seed=%d" site nth spec.segment_bytes
      spec.checkpoint_log_bytes spec.seed,
    r )

let random_durability_schedules ?check_idempotent ~n spec =
  let crashes = ref 0 and failures = ref [] and total_rec = ref 0.0 in
  for s = 1 to n do
    let label, r = random_durability_schedule ?check_idempotent ~schedule_seed:s spec in
    if r.crashed <> None || r.recovery_crashes > 0 then incr crashes;
    total_rec := !total_rec +. r.recovery_s;
    if r.failures <> [] then failures := (label, r.failures) :: !failures
  done;
  {
    boundaries = 0;
    crashes = !crashes;
    runs = n;
    sweep_failures = List.rev !failures;
    total_recovery_s = !total_rec;
  }

(* ------------------------------------------------------------------ *)
(* Sustained-write run: bounded log under checkpoint + retirement      *)

type sustained = {
  s_rounds : int;
  s_txns : int;
  s_checkpoints : int; (* fuzzy checkpoints the commit path triggered *)
  s_segments_created : int;
  s_segments_retired : int;
  s_segments_live : int;
  s_failures : string list; (* empty = log stayed bounded and consistent *)
}

(* Run [rounds] batches of transfers against ONE long-lived segmented
   WAL with the commit-path fuzzy-checkpoint trigger on, then assert
   the log stayed bounded: segments were retired, and the live segment
   count never outgrew the checkpoint threshold plus slack.  Close
   cleanly, crash the pool, recover, and verify every round's effects
   survived. *)
let sustained_run ?(rounds = 12) spec =
  Fault.reset_all ();
  let spec =
    {
      spec with
      checkpoint_log_bytes =
        (if spec.checkpoint_log_bytes > 0 then spec.checkpoint_log_bytes else 2048);
    }
  in
  let pages_path, wal_path = fresh_paths () in
  let ps = Pstore.create ~page_size:spec.page_size ~pool_capacity:spec.pool_capacity pages_path in
  let store = Pstore.to_store ps in
  for a = 1 to spec.accounts do
    Store.write store (Bank.account a) (Value.of_int spec.balance)
  done;
  Store.flush store;
  let log = Log.create_dir ~segment_bytes:spec.segment_bytes wal_path in
  let config = { E.default_config with checkpoint_log_bytes = spec.checkpoint_log_bytes } in
  let db = E.create ~config ~log store in
  let expected = Array.make (spec.accounts + 1) spec.balance in
  let txns = ref 0 in
  for round = 1 to rounds do
    let transfers = plan { spec with seed = spec.seed + round } in
    Runtime.run_exn db (fun () ->
        let tids =
          Array.map
            (fun tr -> E.initiate db (Bank.transfer db ~from_:tr.src ~to_:tr.dst ~amount:tr.amount))
            transfers
        in
        Array.iter (fun t -> ignore (E.begin_ db t)) tids;
        Array.iteri
          (fun i t ->
            E.spawn db ~label:(String.concat "" [ "committer-"; string_of_int round; "-"; string_of_int i ]) (fun () ->
                if E.commit db t then begin
                  let tr = transfers.(i) in
                  expected.(tr.src) <- expected.(tr.src) - tr.amount;
                  expected.(tr.dst) <- expected.(tr.dst) + tr.amount
                end))
          tids;
        E.await_terminated db (Array.to_list tids));
    txns := !txns + Array.length transfers
  done;
  let checkpoints = List.assoc "fuzzy_ckpts" (E.stats db) in
  let retired = Log.segments_retired log in
  let live = Log.segment_count log in
  let created = live + retired in
  let failures = ref [] in
  let addf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if checkpoints = 0 then addf "no fuzzy checkpoint fired in %d rounds" rounds;
  if retired = 0 then addf "no segment retired (created %d)" created;
  (* Live segments are bounded by the un-checkpointed window: one
     threshold of log plus the segment being filled and one of slack
     for records of transactions still active at the last capture. *)
  let bound = 2 + ((2 * spec.checkpoint_log_bytes / spec.segment_bytes) + 2) in
  if live > bound then addf "log unbounded: %d live segments (bound %d, retired %d)" live bound retired;
  Log.close log;
  Pstore.crash_and_reopen ps;
  let rlog = Log.load_dir wal_path in
  ignore (Recovery.recover rlog store);
  for a = 1 to spec.accounts do
    match Store.read store (Bank.account a) with
    | Some v ->
        if Value.to_int v <> expected.(a) then
          addf "account %d holds %d after sustained run, expected %d" a (Value.to_int v)
            expected.(a)
    | None -> addf "account %d missing after sustained run" a
  done;
  Log.close rlog;
  Pstore.close ps;
  Sys.remove pages_path;
  Log.remove_dir wal_path;
  {
    s_rounds = rounds;
    s_txns = !txns;
    s_checkpoints = checkpoints;
    s_segments_created = created;
    s_segments_retired = retired;
    s_segments_live = live;
    s_failures = List.rev !failures;
  }

(* ------------------------------------------------------------------ *)
(* Fault-rate retry workload (bench E19)                               *)

type retry_outcome = {
  committed : int;
  retries : int;
  gave_up : int;
  stats : (string * int) list;
  duration_s : float;
  conserved : bool; (* bank total intact after close + recovery *)
}

(* Run the transfer workload under a transient-failure rate with the
   bounded-retry combinator, then close cleanly, recover, and verify
   conservation.  [fault_rate] arms "workload.op" with a seeded
   probability policy, so each attempt (including retries) may fail and
   be retried. *)
let run_retry_workload ?(fault_rate = 0.0) ?(max_retries = 3) spec =
  Fault.reset_all ();
  let pages_path, wal_path = fresh_paths () in
  let ps = Pstore.create ~page_size:spec.page_size ~pool_capacity:spec.pool_capacity pages_path in
  let store = Pstore.to_store ps in
  for a = 1 to spec.accounts do
    Store.write store (Bank.account a) (Value.of_int spec.balance)
  done;
  Store.flush store;
  let log = Log.create_dir ~segment_bytes:spec.segment_bytes wal_path in
  let db = E.create ~log store in
  let transfers = plan spec in
  if fault_rate > 0.0 then
    Fault.arm site_op (Fault.Fail_prob (fault_rate, Rng.create (spec.seed lxor 0x0fa17)));
  let bodies =
    Array.to_list
      (Array.map
         (fun tr () ->
           Fault.hit site_op;
           Bank.transfer db ~from_:tr.src ~to_:tr.dst ~amount:tr.amount ())
         transfers)
  in
  let rng = Rng.create (spec.seed lxor 0x6b8b4567) in
  let t0 = Unix.gettimeofday () in
  let metrics = ref { Workload.r_committed = 0; r_retries = 0; r_gave_up = 0 } in
  Runtime.run_exn db (fun () -> metrics := Workload.run_bodies_with_retry ~max_retries ~rng db bodies);
  let duration_s = Unix.gettimeofday () -. t0 in
  let stats = E.stats db in
  Fault.reset_all ();
  Log.close log;
  Pstore.crash_and_reopen ps;
  let rlog = Log.load_dir wal_path in
  ignore (Recovery.recover rlog store);
  let conserved =
    let total = ref 0 in
    for a = 1 to spec.accounts do
      match Store.read store (Bank.account a) with
      | Some v -> total := !total + Value.to_int v
      | None -> ()
    done;
    !total = spec.accounts * spec.balance
  in
  Log.close rlog;
  Pstore.close ps;
  Sys.remove pages_path;
  Log.remove_dir wal_path;
  {
    committed = !metrics.Workload.r_committed;
    retries = !metrics.Workload.r_retries;
    gave_up = !metrics.Workload.r_gave_up;
    stats;
    duration_s;
    conserved;
  }
