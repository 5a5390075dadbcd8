(* Crash-recovery torture: exhaustive WAL-boundary crashes, seeded
   random crash schedules across every I/O failpoint, the group-commit
   acknowledgment property, recovery idempotence, lock-wait timeouts
   and bounded retry. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Fault = Asset_fault.Fault
module Torture = Asset_workload.Torture

let oid = Oid.of_int

let pp_sweep (s : Torture.sweep) =
  String.concat "; "
    (List.map
       (fun (label, fs) -> Printf.sprintf "[%s: %s]" label (String.concat ", " fs))
       s.Torture.sweep_failures)

let check_sweep name (s : Torture.sweep) =
  if s.Torture.sweep_failures <> [] then
    Alcotest.failf "%s: %d runs violated invariants: %s" name
      (List.length s.Torture.sweep_failures)
      (pp_sweep s)

(* --- crash at every WAL record boundary --- *)

(* The sweep's fault-free reference run (deterministic, so rerunning it
   gives the same run) must force at least one batch of two or more
   commit records: fewer forces than acknowledged commits.  Otherwise
   the batched-force crash window would go unswept. *)
let check_batched_force spec =
  let r = Torture.run_once spec in
  let acked = Array.fold_left (fun n a -> if a then n + 1 else n) 0 r.Torture.acked in
  Alcotest.(check bool)
    (Printf.sprintf "a force covered >= 2 commits (%d forces, %d acked)" r.Torture.forces acked)
    true
    (r.Torture.forces < acked)

let test_boundary_sweep () =
  check_batched_force Torture.default_spec;
  let sweep = Torture.crash_at_every_boundary Torture.default_spec in
  check_sweep "boundary sweep" sweep;
  Alcotest.(check bool) "swept a real log" true (sweep.Torture.boundaries > 30);
  (* The workload is deterministic, so the k-th append exists in every
     run for k up to the reference count: every run must crash. *)
  Alcotest.(check int) "every boundary crashed" sweep.Torture.boundaries sweep.Torture.crashes

let test_boundary_sweep_group_commit () =
  (* A second workload seed, with the idempotence check on. *)
  let spec = { Torture.default_spec with seed = 97 } in
  check_batched_force spec;
  let sweep = Torture.crash_at_every_boundary ~check_idempotent:true spec in
  check_sweep "boundary sweep (group commit)" sweep;
  Alcotest.(check int) "every boundary crashed" sweep.Torture.boundaries sweep.Torture.crashes

(* --- seeded random crash schedules over every failpoint site --- *)

let test_random_crash_schedules () =
  let spec =
    { Torture.default_spec with accounts = 8; n_txns = 10; pool_capacity = 2; page_size = 256 }
  in
  let sweep = Torture.random_crash_schedules ~n:500 spec in
  check_sweep "random schedules" sweep;
  Alcotest.(check int) "ran all schedules" 500 sweep.Torture.runs;
  (* Sanity: the schedules actually inject — a decent fraction must
     really lose power (the rest arm a site/count the run never hits). *)
  Alcotest.(check bool) "faults fired" true (sweep.Torture.crashes > 100)

(* --- group commit never acknowledges an unforced commit --- *)

let test_group_commit_ack_requires_force () =
  (* Commit records are staged and only forced at quiescence — crash
     that very first force.  No transaction may have been
     acknowledged, and recovery must find only losers. *)
  let spec = Torture.default_spec in
  let arm () = ignore (Fault.arm_name "wal.force" Fault.Crash_once) in
  let r = Torture.run_once ~arm spec in
  Alcotest.(check (option string)) "crashed at the force" (Some "wal.force") r.Torture.crashed;
  Alcotest.(check bool) "invariants hold" true (r.Torture.failures = []);
  Array.iteri
    (fun i acked -> Alcotest.(check bool) (Printf.sprintf "txn %d not acked" i) false acked)
    r.Torture.acked;
  Alcotest.(check bool) "no winners" true (r.Torture.report.Torture.Recovery.winners = [])

let test_crash_after_force_durable_but_unacked () =
  (* Crash *after* the fsync: the batch is durable but nobody was told.
     Recovery must keep the winners even though no commit was
     acknowledged — allowed, since acked ⊆ winners is one-directional. *)
  let spec = Torture.default_spec in
  let arm () = ignore (Fault.arm_name "wal.after_force" Fault.Crash_once) in
  let r = Torture.run_once ~arm spec in
  Alcotest.(check (option string)) "crashed after force" (Some "wal.after_force") r.Torture.crashed;
  Alcotest.(check bool) "invariants hold" true (r.Torture.failures = []);
  Alcotest.(check bool) "the forced batch won" true (r.Torture.report.Torture.Recovery.winners <> []);
  Array.iter (fun acked -> Alcotest.(check bool) "not acked" false acked) r.Torture.acked

(* --- recovery idempotence --- *)

let test_recovery_idempotent_under_random_crashes () =
  let spec = { Torture.default_spec with n_txns = 8; seed = 1234 } in
  let sweep = Torture.random_crash_schedules ~check_idempotent:true ~n:60 spec in
  check_sweep "idempotence" sweep

(* --- durability at sustained scale: fuzzy ckpt / retirement / redo --- *)

(* A spec that exercises the whole machine: small WAL segments and an
   aggressive commit-path checkpoint trigger (callers add the
   idempotence check). *)
let durability_spec =
  { Torture.default_spec with n_txns = 20; segment_bytes = 512; checkpoint_log_bytes = 1024 }

let test_crash_mid_fuzzy_checkpoint () =
  (* Crash inside each window of the Begin_ckpt/flush/End_ckpt
     protocol: before the pair completes, recovery must fall back to
     the previous anchor and still satisfy every invariant. *)
  List.iter
    (fun site ->
      let arm () = ignore (Fault.arm_name site Fault.Crash_once) in
      let r = Torture.run_once ~arm ~check_idempotent:true durability_spec in
      Alcotest.(check (option string)) "crashed in the window" (Some site) r.Torture.crashed;
      if r.Torture.failures <> [] then
        Alcotest.failf "%s: %s" site (String.concat ", " r.Torture.failures))
    [ "wal.ckpt.begin"; "wal.ckpt.flush"; "wal.ckpt.end" ]

let test_crash_mid_retirement () =
  (* Crash in each window of the retirement protocol (before the
     manifest write, between manifest and unlink, before the directory
     fsync): load_dir must complete or ignore the half-done retirement
     and recovery must converge. *)
  List.iter
    (fun site ->
      let arm () = ignore (Fault.arm_name site Fault.Crash_once) in
      let r = Torture.run_once ~arm ~check_idempotent:true durability_spec in
      if r.Torture.failures <> [] then
        Alcotest.failf "%s: %s" site (String.concat ", " r.Torture.failures))
    [ "wal.retire.manifest"; "wal.retire.unlink"; "wal.retire.sync_dir" ]

let test_crash_mid_redo () =
  (* Crash before the first redo action and part-way through redo: the
     harness powers off again (redo writes the pool already evicted
     stay on disk) and retries; the retried recovery must converge and
     satisfy every invariant. *)
  List.iter
    (fun nth ->
      let arm_recovery () = ignore (Fault.arm_name "recovery.redo" (Fault.Crash_nth nth)) in
      let r = Torture.run_once ~arm_recovery ~check_idempotent:true durability_spec in
      Alcotest.(check bool)
        (Printf.sprintf "redo hit %d crashed recovery" nth)
        true (r.Torture.recovery_crashes > 0);
      if r.Torture.failures <> [] then
        Alcotest.failf "recovery.redo@%d: %s" nth (String.concat ", " r.Torture.failures))
    [ 1; 5 ]

let test_random_durability_schedules () =
  let sweep = Torture.random_durability_schedules ~check_idempotent:true ~n:120 Torture.default_spec in
  check_sweep "durability schedules" sweep;
  Alcotest.(check int) "ran all schedules" 120 sweep.Torture.runs;
  Alcotest.(check bool) "some actually crashed" true (sweep.Torture.crashes > 10)

let test_disk_full_aborts_cleanly () =
  (* An exhausted disk budget on wal.append: the affected transactions
     abort with Storage_error surfaced through the engine, nothing is
     acknowledged afterwards, and the log is never torn — recovery
     sees a clean prefix. *)
  let arm () = ignore (Fault.arm_name "wal.append" (Fault.Disk_full 600)) in
  let r = Torture.run_once ~arm ~check_idempotent:true Torture.default_spec in
  Alcotest.(check (option string)) "no power loss" None r.Torture.crashed;
  Alcotest.(check int) "log has no corruption" 0 r.Torture.report.Torture.Recovery.log_records_dropped;
  if r.Torture.failures <> [] then
    Alcotest.failf "disk full: %s" (String.concat ", " r.Torture.failures)

let test_sustained_run_bounded () =
  let s = Torture.sustained_run ~rounds:12 { Torture.default_spec with segment_bytes = 1024 } in
  if s.Torture.s_failures <> [] then
    Alcotest.failf "sustained run: %s" (String.concat ", " s.Torture.s_failures);
  Alcotest.(check bool) "checkpoints fired" true (s.Torture.s_checkpoints > 0);
  Alcotest.(check bool) "segments retired" true (s.Torture.s_segments_retired > 0);
  Alcotest.(check bool) "live segments bounded below created" true
    (s.Torture.s_segments_live < s.Torture.s_segments_created)

(* --- crash mid-abort: the §12 double-undo window --- *)

(* A transaction whose undo is *logical* (escrow-style increments,
   audit-queue enqueues) aborts while a concurrent committer holds
   commuting updates on the same objects.  If the crash lands between
   the abort's CLR appends and its Abort record, recovery sees an
   unresolved loser with a persisted undo prefix — re-undoing it would
   subtract the delta and dequeue the item a second time, corrupting
   the committer's effects.  The CLR back-link closes the window; this
   sweep pins it black-box: power loss at every WAL append of a run
   whose shape guarantees the abort path is mid-flight, on a segmented
   WAL whose rotation fsync makes CLR prefixes durable mid-abort. *)

module Tid = Asset_util.Id.Tid
module Log = Asset_wal.Log
module Recovery = Asset_wal.Recovery
module Pstore = Asset_storage.Persistent_store
module Store = Asset_storage.Store
module Heap_store = Asset_storage.Heap_store
module Record = Asset_wal.Record

let counter = oid 1
let audit = oid 2

type mid_abort_outcome = {
  ma_crashed : string option;
  ma_window : bool; (* recovered log holds loser CLRs but no Abort/Commit *)
  ma_boundaries : int; (* appends in the recovered log *)
  ma_failures : string list;
}

let sorted_dump s =
  Store.dump s |> List.map (fun (o, v) -> (o, Value.to_string v)) |> List.sort compare

(* One run: winner W (increment +5, enqueue "dup"), loser L (the same
   commuting shape, explicitly aborted), then a second winner W2 whose
   commit forces the log — so CLRs staged by a fault-hobbled abort
   become durable without their Abort record (prefix-ordered
   durability), exactly the ENOSPC shape of the window. *)
let mid_abort_paths =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asset-midabort-%d-%d" (Unix.getpid ()) !counter)

let run_mid_abort ?(segment_bytes = 96) ~arm () =
  Fault.reset_all ();
  let base = mid_abort_paths () in
  let pages_path = base ^ ".pages" and wal_path = base ^ ".wal.d" in
  let ps = Pstore.create ~page_size:512 ~pool_capacity:4 pages_path in
  let store = Pstore.to_store ps in
  Store.write store counter (Value.of_int 100);
  Store.write store audit (Value.of_queue []);
  Store.flush store;
  let log = Log.create_dir ~segment_bytes wal_path in
  let db = E.create ~log store in
  let w = ref Tid.null and l = ref Tid.null and w2 = ref Tid.null in
  let acked_w = ref false and acked_w2 = ref false in
  arm ();
  let crashed =
    let main () =
      w := E.initiate db (fun () ->
          E.increment db counter 5;
          E.enqueue db audit "dup");
      ignore (E.begin_ db !w);
      if E.commit db !w then acked_w := true;
      l := E.initiate db (fun () ->
          E.increment db counter 7;
          E.enqueue db audit "dup");
      ignore (E.begin_ db !l);
      ignore (E.wait db !l);
      ignore (E.abort db !l);
      w2 := E.initiate db (fun () -> E.increment db counter 3);
      ignore (E.begin_ db !w2);
      if E.commit db !w2 then acked_w2 := true
    in
    match R.run db main with
    | { R.result = Ok (); _ } -> None
    | { R.result = Error (Fault.Crash site | Asset_sched.Scheduler.Fiber_failed (_, Fault.Crash site)); _ } ->
        Some site
    | {
        R.result =
          Error
            ( Fault.Storage_error _
            | Asset_sched.Scheduler.Fiber_failed (_, Fault.Storage_error _) );
        _;
      } ->
        (* A refused append (ENOSPC) surfaced outside a transaction
           body; the run stops early but the machine stays up — the
           harness then simulates power loss below. *)
        None
    | { R.result = Error e; _ } -> raise e
    | exception Fault.Crash site -> Some site
  in
  (* Power off, power on. *)
  Fault.reset_all ();
  (match crashed with Some _ -> Log.crash log | None -> Log.close log);
  Pstore.crash_and_reopen ps;
  let rlog = Log.load_dir wal_path in
  let l_clrs = ref 0 and l_terminated = ref false in
  Log.iter rlog (fun _ r ->
      match r with
      | Record.Clr { tid; _ } when Tid.equal tid !l -> incr l_clrs
      | Record.Abort tid when Tid.equal tid !l -> l_terminated := true
      | Record.Commit tids when List.exists (Tid.equal !l) tids -> l_terminated := true
      | _ -> ());
  let window = !l_clrs > 0 && not !l_terminated in
  let pre = Store.dump store in
  let report = Recovery.recover rlog store in
  let failures = ref [] in
  let addf fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let winner t = List.exists (Tid.equal t) report.Recovery.winners in
  if !acked_w && not (winner !w) then addf "W acked but not durable";
  if !acked_w2 && not (winner !w2) then addf "W2 acked but not durable";
  if (not (Tid.is_null !l)) && winner !l then addf "loser L recovered as winner";
  let expected_c =
    100 + (if winner !w then 5 else 0) + (if winner !w2 then 3 else 0)
  in
  let expected_dups = if winner !w then 1 else 0 in
  (match Store.read store counter with
  | Some v ->
      if Value.to_int v <> expected_c then
        addf "counter holds %d, expected %d" (Value.to_int v) expected_c
  | None -> addf "counter missing");
  (match Store.read store audit with
  | Some v ->
      let dups = List.length (List.filter (String.equal "dup") (Value.to_queue v)) in
      if dups <> expected_dups then addf "audit holds %d dups, expected %d" dups expected_dups
  | None -> addf "audit queue missing");
  (* Shadow replay: a second independent recovery over the same crashed
     image must converge to the identical state. *)
  let shadow = Heap_store.store ~name:"shadow" () in
  List.iter (fun (o, v) -> Store.write shadow o v) pre;
  ignore (Recovery.recover rlog shadow);
  if sorted_dump shadow <> sorted_dump store then addf "shadow replay diverges";
  (* Idempotence: recovering again changes nothing. *)
  let before = sorted_dump store in
  ignore (Recovery.recover rlog store);
  if sorted_dump store <> before then addf "recovery not idempotent";
  let boundaries = Log.length rlog - Log.start_lsn rlog in
  Log.close rlog;
  Pstore.close ps;
  Sys.remove pages_path;
  Log.remove_dir wal_path;
  { ma_crashed = crashed; ma_window = window; ma_boundaries = boundaries;
    ma_failures = List.rev !failures }

let test_mid_abort_crash_sweep () =
  let clean = run_mid_abort ~arm:(fun () -> ()) () in
  if clean.ma_failures <> [] then
    Alcotest.failf "fault-free: %s" (String.concat ", " clean.ma_failures);
  let windows = ref 0 and failures = ref [] in
  for k = 1 to clean.ma_boundaries do
    let arm () = ignore (Fault.arm_name "wal.append" (Fault.Crash_nth k)) in
    let r = run_mid_abort ~arm () in
    if r.ma_window then incr windows;
    if r.ma_failures <> [] then
      failures := Printf.sprintf "wal.append@%d: %s" k (String.concat ", " r.ma_failures) :: !failures
  done;
  if !failures <> [] then
    Alcotest.failf "%d boundary runs violated invariants: %s" (List.length !failures)
      (String.concat "; " !failures);
  (* The sweep is only meaningful if some crash actually landed inside
     the window (CLRs durable, Abort lost). *)
  Alcotest.(check bool) "window exercised" true (!windows > 0)

let test_mid_abort_enospc_window () =
  (* The ENOSPC shape: the disk fills during L's abort, so CLRs stage
     but the Abort record is refused; W2's commit then forces the log
     (making the CLR prefix durable) and the machine loses power.  With
     a byte budget sweep, some budgets exhaust exactly between the
     first CLR and the Abort record. *)
  let hit = ref 0 in
  for budget = 200 to 520 do
    let arm () = ignore (Fault.arm_name "wal.append" (Fault.Disk_full budget)) in
    (* Power loss at the very end: close is replaced by crash so only
       forced bytes survive. *)
    let r = run_mid_abort ~arm () in
    if r.ma_window then incr hit;
    if r.ma_failures <> [] then
      Alcotest.failf "disk_full@%d: %s" budget (String.concat ", " r.ma_failures)
  done;
  Alcotest.(check bool) "ENOSPC window exercised" true (!hit > 0)

(* --- lock-wait timeout --- *)

let deadlock_pair db =
  (* The classic crossed-order pair; with deadlock detection off they
     would hang forever (Scheduler.Deadlock) without a timeout. *)
  let mk a b () =
    E.modify db (oid a) (fun _ -> Value.of_int 1);
    Asset_sched.Scheduler.yield ();
    E.modify db (oid b) (fun _ -> Value.of_int 2)
  in
  (E.initiate db (mk 1 2), E.initiate db (mk 2 1))

let test_lock_timeout_breaks_stall () =
  let config =
    { E.default_config with deadlock_detection = false; lock_wait_timeout_steps = 8 }
  in
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:2 ~value:(fun _ -> Value.of_int 0);
  let db = E.create ~config store in
  let t1 = ref Asset_util.Id.Tid.null and t2 = ref Asset_util.Id.Tid.null in
  R.run_exn db (fun () ->
      let a, b = deadlock_pair db in
      t1 := a;
      t2 := b;
      ignore (E.begin_ db a);
      ignore (E.begin_ db b);
      E.spawn db ~label:"c1" (fun () -> ignore (E.commit db a));
      E.spawn db ~label:"c2" (fun () -> ignore (E.commit db b));
      E.await_terminated db [ a; b ]);
  let aborted = List.filter (fun t -> E.is_aborted db !t) [ t1; t2 ] in
  Alcotest.(check int) "exactly one victim" 1 (List.length aborted);
  (match E.failure_of db !(List.hd aborted) with
  | Some (E.Lock_timeout _) -> ()
  | Some e -> Alcotest.failf "wrong failure: %s" (Printexc.to_string e)
  | None -> Alcotest.fail "no failure recorded");
  Alcotest.(check bool) "timeout counted" true (List.assoc "lock_timeouts" (E.stats db) >= 1);
  Alcotest.(check int) "the other committed" 1
    (List.length (List.filter (fun t -> E.is_committed db !t) [ t1; t2 ]))

let test_timeout_off_still_deadlocks () =
  (* Sanity for the guard: with both knobs off, the pair still
     surfaces as Scheduler.Deadlock — the timeout path must not tick. *)
  let config =
    { E.default_config with deadlock_detection = false; lock_wait_timeout_steps = 0 }
  in
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:2 ~value:(fun _ -> Value.of_int 0);
  let db = E.create ~config store in
  let outcome =
    R.run db (fun () ->
        let a, b = deadlock_pair db in
        ignore (E.begin_ db a);
        ignore (E.begin_ db b);
        E.spawn db ~label:"c1" (fun () -> ignore (E.commit db a));
        E.spawn db ~label:"c2" (fun () -> ignore (E.commit db b));
        E.await_terminated db [ a; b ])
  in
  Alcotest.(check bool) "deadlocked" true outcome.R.deadlocked

(* --- bounded retry with seeded backoff --- *)

let test_retry_recovers_transient_faults () =
  let spec = { Torture.default_spec with n_txns = 16; seed = 31 } in
  let r = Torture.run_retry_workload ~fault_rate:0.4 ~max_retries:6 spec in
  Alcotest.(check int) "all accounted for" 16 (r.Torture.committed + r.Torture.gave_up);
  Alcotest.(check bool) "retries happened" true (r.Torture.retries > 0);
  Alcotest.(check bool) "most eventually commit" true (r.Torture.committed >= 12);
  Alcotest.(check bool) "balance conserved" true r.Torture.conserved

let test_retry_deterministic () =
  let spec = { Torture.default_spec with n_txns = 12; seed = 77 } in
  let a = Torture.run_retry_workload ~fault_rate:0.3 ~max_retries:4 spec in
  let b = Torture.run_retry_workload ~fault_rate:0.3 ~max_retries:4 spec in
  Alcotest.(check int) "committed equal" a.Torture.committed b.Torture.committed;
  Alcotest.(check int) "retries equal" a.Torture.retries b.Torture.retries;
  Alcotest.(check int) "gave_up equal" a.Torture.gave_up b.Torture.gave_up

let test_retry_zero_rate_all_commit () =
  let spec = { Torture.default_spec with n_txns = 10; seed = 5 } in
  let r = Torture.run_retry_workload ~fault_rate:0.0 spec in
  Alcotest.(check int) "all commit" 10 r.Torture.committed;
  Alcotest.(check int) "none gave up" 0 r.Torture.gave_up;
  Alcotest.(check bool) "balance conserved" true r.Torture.conserved

let () =
  Alcotest.run "asset_torture"
    [
      ( "boundary",
        [
          Alcotest.test_case "crash at every WAL boundary" `Quick test_boundary_sweep;
          Alcotest.test_case "crash at every boundary, group commit" `Quick
            test_boundary_sweep_group_commit;
        ] );
      ( "random",
        [
          Alcotest.test_case "500 seeded crash schedules" `Slow test_random_crash_schedules;
          Alcotest.test_case "recovery idempotent" `Quick
            test_recovery_idempotent_under_random_crashes;
        ] );
      ( "group_commit",
        [
          Alcotest.test_case "unforced commit never acked" `Quick
            test_group_commit_ack_requires_force;
          Alcotest.test_case "crash after force: durable, unacked" `Quick
            test_crash_after_force_durable_but_unacked;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash mid fuzzy checkpoint" `Quick test_crash_mid_fuzzy_checkpoint;
          Alcotest.test_case "crash mid retirement" `Quick test_crash_mid_retirement;
          Alcotest.test_case "crash mid redo" `Quick test_crash_mid_redo;
          Alcotest.test_case "120 seeded durability schedules" `Slow
            test_random_durability_schedules;
          Alcotest.test_case "disk full aborts cleanly" `Quick test_disk_full_aborts_cleanly;
          Alcotest.test_case "sustained run stays bounded" `Quick test_sustained_run_bounded;
        ] );
      ( "abort_window",
        [
          Alcotest.test_case "crash at every boundary mid-abort" `Quick
            test_mid_abort_crash_sweep;
          Alcotest.test_case "ENOSPC mid-abort budget sweep" `Quick
            test_mid_abort_enospc_window;
        ] );
      ( "resilience",
        [
          Alcotest.test_case "lock timeout breaks stall" `Quick test_lock_timeout_breaks_stall;
          Alcotest.test_case "no timeout, still deadlocks" `Quick test_timeout_off_still_deadlocks;
          Alcotest.test_case "retry recovers transient faults" `Quick
            test_retry_recovers_transient_faults;
          Alcotest.test_case "retry deterministic" `Quick test_retry_deterministic;
          Alcotest.test_case "zero rate all commit" `Quick test_retry_zero_rate_all_commit;
        ] );
    ]
