(* The model-conformance harness (E20): seeded random schedules for
   every extended-transaction model of section 3, clean and under
   injected faults, with the complete history recorded by lib/obs and
   replayed through the oracle's axiom checkers.  Plus: negative tests
   proving the oracle rejects deliberately broken models, the
   cursor-stability "legal but not serializable" property, the
   stats-reset discipline at engine level, the recovery x
   dependency-obligation check over a crash-surviving trace tail, and
   oracle replay of the JSONL traces dumped by the examples.

   Seed policy: seeds are [base, base + n) per model and variant, with
   n from CONFORMANCE_SEEDS (default 200 — the acceptance bar) and
   base from CONFORMANCE_BASE_SEED (default 1; CI's time-boxed random
   shard sets a random base).  Every failure message names the model,
   the failing seed, the variant and the run's base seed, and ends
   with a copy-pasteable reproduction recipe.  CONF_SEED=<seed> is
   the one-stop override: it pins the base to exactly that seed and
   forces a single iteration, so `CONF_SEED=1234 dune exec
   test/test_conformance.exe` reruns one failing schedule. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Pstore = Asset_storage.Persistent_store
module Log = Asset_wal.Log
module Recovery = Asset_wal.Recovery
module Dep_type = Asset_deps.Dep_type
module Rng = Asset_util.Rng
module Fault = Asset_fault.Fault
module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle
open Asset_models

let oid = Oid.of_int
let vi = Value.of_int

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

(* CONF_SEED pins a single exact seed (reproduction mode); otherwise
   the range is [CONFORMANCE_BASE_SEED, + CONFORMANCE_SEEDS). *)
let conf_seed = Option.bind (Sys.getenv_opt "CONF_SEED") int_of_string_opt

let seeds_per_model =
  match conf_seed with Some _ -> 1 | None -> env_int "CONFORMANCE_SEEDS" 200

let base_seed =
  match conf_seed with Some s -> s | None -> env_int "CONFORMANCE_BASE_SEED" 1

let repro seed =
  Printf.sprintf "base seed %d; reproduce: CONF_SEED=%d dune exec test/test_conformance.exe"
    base_seed seed

(* The transient-failure source for faulted runs: every generated
   transaction body hits this site, and the faulted variant arms it
   with a seeded probability policy. *)
let site = Fault.register "conformance.op"
let maybe_fault () = Fault.hit site

(* ------------------------------------------------------------------ *)
(* Randomized scenario generators, one per model.  Each takes the
   structure RNG (deterministic in the seed) and runs as the main
   program of a fresh database under a seeded random scheduler; faults
   fire only inside transaction bodies, where the engine converts them
   into aborts for the model machinery to handle. *)

(* A random read/write/increment body over a small object set. *)
let body db rng ~objects ~steps () =
  for _ = 1 to steps do
    maybe_fault ();
    let o = oid (1 + Rng.int rng objects) in
    match Rng.int rng 4 with
    | 0 -> ignore (E.read db o)
    | 1 -> E.write db o (vi (Rng.int rng 100))
    | 2 -> E.increment db o 1
    | _ -> Sched.yield ()
  done

let gen_atomic rng db =
  let n = 2 + Rng.int rng 3 in
  for _ = 1 to n do
    E.spawn db ~label:"atomic" (fun () ->
        ignore (Atomic.run db (body db rng ~objects:6 ~steps:(1 + Rng.int rng 4))))
  done

let gen_nested rng db =
  ignore
    (Nested.root db (fun () ->
         body db rng ~objects:4 ~steps:2 ();
         for _ = 1 to 1 + Rng.int rng 2 do
           ignore
             (Nested.sub db (fun () ->
                  body db rng ~objects:4 ~steps:2 ();
                  if Rng.int rng 4 = 0 then failwith "child fails";
                  if Rng.bool rng then
                    ignore (Nested.sub db (body db rng ~objects:4 ~steps:1))))
         done))

let gen_saga rng db =
  let n = 2 + Rng.int rng 3 in
  let fail_at = if Rng.bool rng then Some (Rng.int rng n) else None in
  let steps =
    List.init n (fun i ->
        Saga.step ~label:(string_of_int i)
          ~compensate:(fun () -> E.write db (oid (i + 1)) (vi 0))
          (fun () ->
            maybe_fault ();
            if fail_at = Some i then failwith "step fails";
            E.write db (oid (i + 1)) (vi (i + 1))))
  in
  ignore (Saga.run db steps)

let gen_split_join rng db =
  let with_work = Rng.bool rng in
  let join_back = (not with_work) && Rng.bool rng in
  let split_tid = ref Tid.null in
  let t =
    E.initiate db (fun () ->
        E.write db (oid 1) (vi 1);
        E.write db (oid 2) (vi 2);
        maybe_fault ();
        let s =
          if with_work then Split_join.split ~objs:[ oid 1 ] db (body db rng ~objects:3 ~steps:2)
          else Split_join.split_idle ~objs:[ oid 1 ] db
        in
        match s with Some s -> split_tid := s | None -> ())
  in
  ignore (E.begin_ db t);
  ignore (E.wait db t);
  let s = !split_tid in
  if join_back && (not (Tid.is_null s)) && not (E.is_terminated db t) then begin
    Split_join.join db s t;
    if Rng.bool rng then ignore (E.commit db t) else ignore (E.abort db t)
  end
  else begin
    (if Rng.bool rng then ignore (E.commit db t) else ignore (E.abort db t));
    if (not (Tid.is_null s)) && not (E.is_terminated db s) then
      if Rng.bool rng then ignore (E.commit db s) else ignore (E.abort db s)
  end

let gen_contingent rng db =
  let n = 2 + Rng.int rng 2 in
  let fail_mask = List.init n (fun _ -> Rng.int rng 2 = 0) in
  let alts =
    List.mapi
      (fun i fails () ->
        maybe_fault ();
        if fails then failwith "alternative fails";
        E.write db (oid (i + 1)) (vi 9))
      fail_mask
  in
  if Rng.bool rng then ignore (Contingent.run db alts)
  else ignore (Contingent.run_declarative db alts)

let gen_chained rng db =
  let n = 2 + Rng.int rng 3 in
  let fail_at = if Rng.int rng 3 = 0 then Some (Rng.int rng n) else None in
  let links =
    List.init n (fun i () ->
        maybe_fault ();
        E.write db (oid 1) (vi (10 + i));
        E.write db (oid (2 + i)) (vi 1);
        if fail_at = Some i then failwith "link fails")
  in
  ignore (Chained.run db ~carry:(fun _ -> [ oid 1 ]) links)

let gen_distributed rng db =
  let n = 2 + Rng.int rng 3 in
  let fail_at = if Rng.int rng 3 = 0 then Some (Rng.int rng n) else None in
  let comps =
    List.init n (fun i () ->
        maybe_fault ();
        E.write db (oid (i + 1)) (vi 7);
        if fail_at = Some i then failwith "component fails")
  in
  ignore (Distributed.run db comps)

let gen_coop rng db =
  let coupling =
    match Rng.int rng 3 with 0 -> `None | 1 -> `Commit_ordered | _ -> `Group
  in
  let incr_body k () =
    for _ = 1 to 2 do
      maybe_fault ();
      E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) k);
      Sched.yield ()
    done
  in
  let ti = E.initiate db (incr_body 1) in
  let tj = E.initiate db (incr_body 10) in
  Coop.pair db ~ti ~tj ~objs:[ oid 1 ] ~coupling;
  ignore (E.begin_ db ti);
  ignore (E.begin_ db tj);
  E.spawn db ~label:"ci" (fun () -> ignore (E.commit db ti));
  E.spawn db ~label:"cj" (fun () -> ignore (E.commit db tj));
  E.await_terminated db [ ti; tj ]

let gen_cursor rng db =
  let records = List.init 3 (fun i -> oid (i + 1)) in
  let repeatable = Rng.bool rng in
  let scanner =
    E.initiate db (fun () ->
        let scan = if repeatable then Cursor_stability.scan_repeatable else Cursor_stability.scan in
        scan db records ~f:(fun _ _ ->
            maybe_fault ();
            Sched.yield ()))
  in
  let writer =
    E.initiate db (fun () ->
        maybe_fault ();
        E.write db (oid (1 + Rng.int rng 3)) (vi 99))
  in
  ignore (E.begin_ db scanner);
  Sched.yield ();
  ignore (E.begin_ db writer);
  E.spawn db ~label:"cs" (fun () -> ignore (E.commit db scanner));
  E.spawn db ~label:"cw" (fun () -> ignore (E.commit db writer));
  E.await_terminated db [ scanner; writer ]

let gen_workflow rng db =
  let counter = ref 0 in
  let mk_task () =
    incr counter;
    let n = !counter in
    let slot = oid (1 + (n mod 12)) in
    let fails = Rng.int rng 4 = 0 in
    Workflow.task
      (Printf.sprintf "t%d" n)
      ~compensate:(fun () -> E.write db slot (vi 0))
      (fun () ->
        maybe_fault ();
        if fails then failwith "task fails";
        E.write db slot (vi 1))
  in
  let rec tree depth =
    if depth = 0 then Workflow.Task (mk_task ())
    else
      match Rng.int rng 5 with
      | 0 -> Workflow.Seq (List.init (1 + Rng.int rng 2) (fun _ -> tree (depth - 1)))
      | 1 -> Workflow.Alternatives (List.init (1 + Rng.int rng 2) (fun _ -> tree (depth - 1)))
      | 2 -> Workflow.Optional (tree (depth - 1))
      | 3 -> Workflow.Race (List.init (1 + Rng.int rng 2) (fun _ -> mk_task ()))
      | _ -> Workflow.Group (List.init (1 + Rng.int rng 2) (fun _ -> mk_task ()))
  in
  ignore (Workflow.run db (tree 2))

(* ------------------------------------------------------------------ *)
(* The harness.  Fully-isolated models get the strict bundle (SR +
   dependencies + lock ownership + strict 2PL + visibility); the
   cooperating models relax global SR by design, so they get the
   cooperative bundle plus strict 2PL (permits suspend conflicting
   locks rather than releasing them, so two-phase discipline still
   holds for them). *)

type model = {
  name : string;
  gen : Rng.t -> E.t -> unit;
  checks : Trace.entry list -> Oracle.violation list;
}

let strict = Oracle.check_strict_history

let cooperative entries =
  Oracle.check_cooperative_history entries @ Oracle.check_two_phase ~strict:true entries

let models =
  [
    { name = "atomic"; gen = gen_atomic; checks = strict };
    { name = "nested"; gen = gen_nested; checks = strict };
    { name = "saga"; gen = gen_saga; checks = strict };
    { name = "split_join"; gen = gen_split_join; checks = strict };
    { name = "contingent"; gen = gen_contingent; checks = strict };
    { name = "chained"; gen = gen_chained; checks = strict };
    { name = "distributed"; gen = gen_distributed; checks = strict };
    { name = "coop"; gen = gen_coop; checks = cooperative };
    { name = "cursor_stability"; gen = gen_cursor; checks = cooperative };
    { name = "workflow"; gen = gen_workflow; checks = strict };
  ]

let run_conformance model ~faulted seed =
  Fault.reset_all ();
  if faulted then Fault.arm site (Fault.Fail_prob (0.08, Rng.create (seed lxor 0x5eed)));
  let entries =
    Fun.protect ~finally:Fault.reset_all (fun () ->
        let rng = Rng.create seed in
        match
          Trace.with_memory (fun () ->
              ignore
                (R.with_fresh_db ~objects:16 ~max_steps:500_000
                   ~policy:(Sched.Random_seeded seed)
                   (fun db -> model.gen rng db)))
        with
        | (), entries -> entries
        | exception exn ->
            Alcotest.failf "%s seed %d%s: raised %s (%s)" model.name seed
              (if faulted then " (faulted)" else "")
              (Printexc.to_string exn) (repro seed))
  in
  match model.checks entries with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s seed %d%s (%s): %d violation(s):@\n%s" model.name seed
        (if faulted then " (faulted)" else "")
        (repro seed) (List.length vs)
        (String.concat "\n" (List.map (Format.asprintf "%a" Oracle.pp_violation) vs))

let conformance_case model ~faulted () =
  for i = 0 to seeds_per_model - 1 do
    run_conformance model ~faulted (base_seed + i)
  done

(* ------------------------------------------------------------------ *)
(* Negative tests: synthetic histories each violating exactly one
   axiom, proving the corresponding checker has teeth. *)

let t = Tid.of_int
let o = Oid.of_int
let mk evs = List.mapi (fun i ev -> { Trace.seq = i + 1; shard = 0; ev }) evs

let flags name checker entries =
  Alcotest.(check bool) (name ^ " rejected") true (checker entries <> [])

let passes name checker entries =
  match checker entries with
  | [] -> ()
  | vs ->
      Alcotest.failf "%s unexpectedly rejected: %s" name
        (String.concat "; " (List.map (Format.asprintf "%a" Oracle.pp_violation) vs))

let test_oracle_rejects_dirty_read () =
  let dirty_read =
    mk
      [
        Trace.Begin { tid = t 1 };
        Trace.Op { tid = t 1; oid = o 1; op = 'W' };
        Trace.Begin { tid = t 2 };
        Trace.Op { tid = t 2; oid = o 1; op = 'R' };
        Trace.Commit { tids = [ t 2 ]; ts = 0 };
        Trace.Commit { tids = [ t 1 ]; ts = 0 };
      ]
  in
  flags "unsanctioned dirty read" Oracle.check_visibility dirty_read;
  (* The same history with a covering permit is the paper's sanctioned
     cooperation. *)
  let sanctioned =
    mk
      [
        Trace.Begin { tid = t 1 };
        Trace.Op { tid = t 1; oid = o 1; op = 'W' };
        Trace.Permit { from_ = t 1; to_ = t 2; oids = [ o 1 ]; ops = "R" };
        Trace.Begin { tid = t 2 };
        Trace.Op { tid = t 2; oid = o 1; op = 'R' };
        Trace.Commit { tids = [ t 2 ]; ts = 0 };
        Trace.Commit { tids = [ t 1 ]; ts = 0 };
      ]
  in
  passes "permitted read" Oracle.check_visibility sanctioned;
  (* Commuting increments need no permit (section 5). *)
  let increments =
    mk
      [
        Trace.Begin { tid = t 1 };
        Trace.Begin { tid = t 2 };
        Trace.Op { tid = t 1; oid = o 1; op = 'I' };
        Trace.Op { tid = t 2; oid = o 1; op = 'I' };
        Trace.Commit { tids = [ t 1 ]; ts = 0 };
        Trace.Commit { tids = [ t 2 ]; ts = 0 };
      ]
  in
  passes "commuting increments" Oracle.check_visibility increments

let test_oracle_rejects_conflict_cycle () =
  flags "committed conflict cycle" Oracle.check_serializable
    (mk
       [
         Trace.Begin { tid = t 1 };
         Trace.Begin { tid = t 2 };
         Trace.Op { tid = t 1; oid = o 1; op = 'R' };
         Trace.Op { tid = t 2; oid = o 1; op = 'W' };
         Trace.Op { tid = t 2; oid = o 2; op = 'W' };
         Trace.Commit { tids = [ t 2 ]; ts = 0 };
         Trace.Op { tid = t 1; oid = o 2; op = 'R' };
         Trace.Commit { tids = [ t 1 ]; ts = 0 };
       ]);
  (* The same interleaving with t1 aborted has a serializable committed
     projection. *)
  passes "aborted half of the cycle" Oracle.check_serializable
    (mk
       [
         Trace.Begin { tid = t 1 };
         Trace.Begin { tid = t 2 };
         Trace.Op { tid = t 1; oid = o 1; op = 'R' };
         Trace.Op { tid = t 2; oid = o 1; op = 'W' };
         Trace.Op { tid = t 2; oid = o 2; op = 'W' };
         Trace.Commit { tids = [ t 2 ]; ts = 0 };
         Trace.Op { tid = t 1; oid = o 2; op = 'R' };
         Trace.Abort { tid = t 1 };
       ])

let test_oracle_rejects_non_two_phase () =
  let history =
    mk
      [
        Trace.Begin { tid = t 1 };
        Trace.Lock { tid = t 1; oid = o 1; mode = 'W'; action = Trace.Grant };
        Trace.Lock { tid = t 1; oid = o 1; mode = 'W'; action = Trace.Release };
        Trace.Lock { tid = t 1; oid = o 2; mode = 'W'; action = Trace.Grant };
        Trace.Commit { tids = [ t 1 ]; ts = 0 };
      ]
  in
  let vs = Oracle.check_two_phase ~strict:true history in
  Alcotest.(check bool) "two-phase violation found" true
    (List.exists (fun v -> v.Oracle.check = "two-phase") vs);
  Alcotest.(check bool) "strictness violation found" true
    (List.exists (fun v -> v.Oracle.check = "strictness") vs)

let test_oracle_rejects_foreign_release () =
  flags "release by non-owner" Oracle.check_lock_ownership
    (mk
       [
         Trace.Lock { tid = t 1; oid = o 1; mode = 'W'; action = Trace.Grant };
         Trace.Lock { tid = t 2; oid = o 1; mode = 'W'; action = Trace.Release };
       ]);
  flags "delegation of unheld lock" Oracle.check_lock_ownership
    (mk [ Trace.Delegate { from_ = t 1; to_ = t 2; moved = [ o 1 ] } ])

let test_oracle_rejects_split_group_commit () =
  let history =
    mk
      [
        Trace.Dep { dtype = "GC"; master = t 1; dependent = t 2 };
        Trace.Commit { tids = [ t 1 ]; ts = 0 };
        Trace.Commit { tids = [ t 2 ]; ts = 0 };
      ]
  in
  flags "GC pair in separate commit events" Oracle.check_dependencies history;
  flags "group atomicity" (Oracle.check_group_atomicity ~groups:[ [ t 1; t 2 ] ]) history;
  passes "atomic group commit"
    (Oracle.check_group_atomicity ~groups:[ [ t 1; t 2 ] ])
    (mk
       [
         Trace.Dep { dtype = "GC"; master = t 1; dependent = t 2 };
         Trace.Commit { tids = [ t 1; t 2 ]; ts = 0 };
       ])

let test_oracle_rejects_stale_snapshot_read () =
  (* w1 commits o1 at ts=1 before the snapshot begins at ts=1; a later
     w2 commits at ts=2.  The reader must see exactly the ts=1
     version. *)
  let history ~read_ts =
    mk
      [
        Trace.Begin { tid = t 1 };
        Trace.Op { tid = t 1; oid = o 1; op = 'W' };
        Trace.Commit { tids = [ t 1 ]; ts = 1 };
        Trace.Begin { tid = t 3 };
        Trace.Snapshot { tid = t 3; ts = 1 };
        Trace.Begin { tid = t 2 };
        Trace.Op { tid = t 2; oid = o 1; op = 'W' };
        Trace.Commit { tids = [ t 2 ]; ts = 2 };
        Trace.Snap_read { tid = t 3; oid = o 1; ts = read_ts };
        Trace.Commit { tids = [ t 3 ]; ts = 0 };
      ]
  in
  passes "correct snapshot version" Oracle.check_snapshot_visibility (history ~read_ts:1);
  flags "stale version (older than visible)" Oracle.check_snapshot_visibility
    (history ~read_ts:0);
  flags "future version (committed after begin)" Oracle.check_snapshot_visibility
    (history ~read_ts:2);
  (* A read-only transaction must never enter the lock table or issue a
     locked operation. *)
  flags "snapshot txn takes a lock" Oracle.check_snapshot_visibility
    (mk
       [
         Trace.Begin { tid = t 3 };
         Trace.Snapshot { tid = t 3; ts = 1 };
         Trace.Lock { tid = t 3; oid = o 1; mode = 'R'; action = Trace.Grant };
       ]);
  flags "snapshot txn issues locked op" Oracle.check_snapshot_visibility
    (mk
       [
         Trace.Begin { tid = t 3 };
         Trace.Snapshot { tid = t 3; ts = 1 };
         Trace.Op { tid = t 3; oid = o 1; op = 'R' };
       ]);
  flags "snap-read without an open snapshot" Oracle.check_snapshot_visibility
    (mk
       [
         Trace.Snapshot { tid = t 2; ts = 1 };
         Trace.Snap_read { tid = t 3; oid = o 1; ts = 1 };
       ])

let test_oracle_rejects_ad_after_master_abort () =
  flags "AD dependent outlives aborted master" Oracle.check_dependencies
    (mk
       [
         Trace.Dep { dtype = "AD"; master = t 1; dependent = t 2 };
         Trace.Abort { tid = t 1 };
         Trace.Commit { tids = [ t 2 ]; ts = 0 };
       ])

(* A deliberately broken saga runner: components commit, the saga
   "fails", and the compensations run in FORWARD order instead of
   reverse.  The oracle must reject the history; the correctly ordered
   control must pass. *)

let run_txn db bdy =
  let tx = E.initiate db bdy in
  ignore (E.begin_ db tx);
  ignore (E.commit db tx);
  tx

let broken_saga_history ~reversed =
  let pairs = ref [] in
  let (), entries =
    Trace.with_memory (fun () ->
        ignore
          (R.with_fresh_db ~objects:8 (fun db ->
               let comps =
                 List.map (fun n -> (n, run_txn db (fun () -> E.write db (oid n) (vi n)))) [ 1; 2; 3 ]
               in
               let order = if reversed then List.rev comps else comps in
               let compensations =
                 List.map
                   (fun (n, c) -> (c, run_txn db (fun () -> E.write db (oid n) (vi 0))))
                   order
               in
               pairs := List.map (fun (_, c) -> (c, List.assoc c compensations)) comps)))
  in
  (!pairs, entries)

let test_broken_saga_rejected () =
  let pairs, entries = broken_saga_history ~reversed:false in
  flags "forward-order compensation" (Oracle.check_compensation_order ~pairs) entries;
  let pairs, entries = broken_saga_history ~reversed:true in
  passes "reverse-order compensation" (Oracle.check_compensation_order ~pairs) entries

(* A deliberately broken distributed transaction: components commit
   one by one with no group-commit coupling, and one of them fails —
   the committed survivors violate all-or-nothing. *)
let test_broken_distributed_rejected () =
  let group = ref [] in
  let (), entries =
    Trace.with_memory (fun () ->
        ignore
          (R.with_fresh_db ~objects:8 (fun db ->
               let c1 = run_txn db (fun () -> E.write db (oid 1) (vi 1)) in
               let c2 = run_txn db (fun () -> E.write db (oid 2) (vi 2)) in
               let c3 =
                 let tx = E.initiate db (fun () -> failwith "component fails") in
                 ignore (E.begin_ db tx);
                 ignore (E.commit db tx);
                 tx
               in
               group := [ c1; c2; c3 ])))
  in
  flags "broken distributed commit" (Oracle.check_group_atomicity ~groups:[ !group ]) entries;
  (* Control: the real model's group commit is a single atomic event. *)
  let (), entries =
    Trace.with_memory (fun () ->
        ignore
          (R.with_fresh_db ~objects:8 (fun db ->
               ignore
                 (Distributed.run db
                    [ (fun () -> E.write db (oid 1) (vi 1)); (fun () -> E.write db (oid 2) (vi 2)) ]))))
  in
  let committed = List.sort_uniq Tid.compare (Oracle.committed entries) in
  Alcotest.(check bool) "two components committed" true (List.length committed = 2);
  passes "real distributed run" (Oracle.check_group_atomicity ~groups:[ committed ]) entries

(* ------------------------------------------------------------------ *)
(* The cursor-stability property (satellite): a history that cursor
   stability legally admits while giving up serializability.  While
   the cursor sits on r1, the writer updates r3 and queues behind the
   cursor lock for r1; the moment the cursor moves on, the writer
   overwrites r1 and commits — so the scanner read r1 BEFORE the
   writer's update (edge scanner -> writer) and reads r3 AFTER the
   writer committed (edge writer -> scanner).  A conflict cycle, yet
   no uncommitted data was ever touched: cursor stability's whole
   point is trading exactly this anomaly for concurrency. *)

let test_cursor_stability_legal_but_not_serializable () =
  let (), entries =
    Trace.with_memory (fun () ->
        ignore
          (R.with_fresh_db ~objects:4 (fun db ->
               let scanner =
                 E.initiate db (fun () ->
                     Cursor_stability.scan db [ oid 1; oid 2; oid 3 ] ~f:(fun record _ ->
                         if not (Oid.equal record (oid 3)) then
                           for _ = 1 to 6 do
                             Sched.yield ()
                           done))
               in
               let writer =
                 E.initiate db (fun () ->
                     E.write db (oid 3) (vi 99);
                     E.write db (oid 1) (vi 99))
               in
               ignore (E.begin_ db scanner);
               Sched.yield ();
               ignore (E.begin_ db writer);
               ignore (E.commit db writer);
               ignore (E.commit db scanner))))
  in
  passes "cursor-stability legality" cooperative entries;
  flags "serializability" Oracle.check_serializable entries

(* ------------------------------------------------------------------ *)
(* Recovery x dependencies (satellite): run dependent transactions over
   the persistent stack, lose power, recover — the pre-crash ring tail
   (the recorder lives above the storage stack, so it survives the
   simulated power loss) must show every obligation discharged in the
   durable state, and the checker must flag a fabricated half-group. *)

let tmp =
  let n = ref 0 in
  fun ext ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asset_conf_%d_%d.%s" (Unix.getpid ()) !n ext)

let test_recovery_discharges_obligations () =
  let pages = tmp "pages" and logf = tmp "wal" in
  let ps = Pstore.create ~page_size:512 pages in
  let store = Pstore.to_store ps in
  for i = 1 to 8 do
    Store.write store (oid i) (vi 0)
  done;
  Store.flush store;
  let log = Log.create_dir logf in
  let db = E.create ~log store in
  let ga = ref Tid.null and gb = ref Tid.null in
  let m = ref Tid.null and d = ref Tid.null in
  Trace.start ();
  R.run_exn db (fun () ->
      (* A GC pair that commits (atomically, forced to the log)... *)
      let a = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
      let b = E.initiate db (fun () -> E.write db (oid 2) (vi 2)) in
      ga := a;
      gb := b;
      ignore (E.form_dependency db Dep_type.GC a b);
      ignore (E.begin_ db a);
      ignore (E.begin_ db b);
      E.spawn db ~label:"cb" (fun () -> ignore (E.commit db b));
      ignore (E.commit db a);
      (* ...and an AD pair still in flight at the crash: bodies done,
         updates logged, neither commit invoked. *)
      let mm = E.initiate db (fun () -> E.write db (oid 3) (vi 3)) in
      let dd = E.initiate db (fun () -> E.write db (oid 4) (vi 4)) in
      m := mm;
      d := dd;
      ignore (E.form_dependency db Dep_type.AD mm dd);
      ignore (E.begin_ db mm);
      ignore (E.begin_ db dd);
      ignore (E.wait db mm);
      ignore (E.wait db dd));
  (* Push the in-flight updates to disk, then lose power. *)
  Log.force log;
  let tail = Trace.recent () in
  Trace.stop ();
  Log.crash log;
  Pstore.crash_and_reopen ps;
  let store = Pstore.to_store ps in
  let recovered_log = Log.load_dir logf in
  let report = Recovery.recover recovered_log store in
  Log.close recovered_log;
  let winners = report.Recovery.winners in
  let mem tid = List.exists (Tid.equal tid) winners in
  Alcotest.(check bool) "GC pair won together" true (mem !ga && mem !gb);
  Alcotest.(check bool) "in-flight AD pair lost" true
    ((not (mem !m)) && not (mem !d));
  passes "recovered obligations" (Oracle.check_recovered_obligations ~winners) tail;
  (* Teeth: drop one GC member from the winner set and the checker must
     object; pretend the AD dependent survived without its master,
     likewise. *)
  flags "half a GC group"
    (Oracle.check_recovered_obligations ~winners:(List.filter (fun w -> not (Tid.equal w !gb)) winners))
    tail;
  flags "AD dependent without master"
    (Oracle.check_recovered_obligations ~winners:(!d :: winners))
    tail;
  Pstore.close ps;
  Sys.remove pages;
  Log.remove_dir logf

(* ------------------------------------------------------------------ *)
(* Recorder mechanics: ring retention, JSONL round-trip, engine-level
   stats reset. *)

let test_ring_keeps_tail () =
  Trace.start ~capacity:8 ();
  for i = 1 to 20 do
    Trace.emit (Trace.Op { tid = t 1; oid = o i; op = 'R' })
  done;
  let tail = Trace.recent () in
  Trace.stop ();
  Alcotest.(check int) "ring holds capacity entries" 8 (List.length tail);
  let seqs = List.map (fun e -> e.Trace.seq) tail in
  Alcotest.(check (list int)) "oldest-first tail" [ 13; 14; 15; 16; 17; 18; 19; 20 ] seqs

let test_jsonl_roundtrip () =
  let (), entries =
    Trace.with_memory (fun () ->
        ignore
          (R.with_fresh_db ~objects:8 (fun db ->
               ignore
                 (Distributed.run db
                    [ (fun () -> E.write db (oid 1) (vi 1)); (fun () -> E.increment db (oid 2) 3) ]);
               ignore (Atomic.run db (fun () -> ignore (E.read db (oid 1)))))))
  in
  Alcotest.(check bool) "trace non-trivial" true (List.length entries > 10);
  List.iter
    (fun e ->
      let e' = Trace.entry_of_json (Trace.entry_to_json e) in
      if e' <> e then
        Alcotest.failf "roundtrip mismatch: %a vs %a" Trace.pp_entry e Trace.pp_entry e')
    entries

let test_engine_reset_stats () =
  let db =
    R.with_fresh_db ~objects:4 (fun db ->
        ignore (Atomic.run db (fun () -> E.write db (oid 1) (vi 1)));
        ignore (Atomic.run db (fun () -> ignore (E.read db (oid 1)))))
  in
  let s1 = E.stats db in
  Alcotest.(check bool) "commits counted" true (List.assoc "commits" s1 >= 2);
  Alcotest.(check bool) "lock acquires counted" true (List.assoc "lock.acquires" s1 >= 2);
  let s2 = E.stats db in
  Alcotest.(check bool) "stats read is pure" true (s1 = s2);
  E.reset_stats db;
  List.iter
    (fun (k, v) ->
      (* The two gauges track live structures and survive the reset. *)
      if k <> "lock.waits_edges" && k <> "deps.live_edges" then
        Alcotest.(check int) (k ^ " zero after reset") 0 v)
    (E.stats db)

(* ------------------------------------------------------------------ *)
(* Example traces (satellite): both examples dump their histories as
   JSONL behind --trace; the loaded traces must satisfy the oracle. *)

let run_example name =
  (* Resolve relative to this binary so the test works both under
     [dune runtest] (cwd = _build/default/test) and [dune exec]. *)
  let exe =
    Filename.concat (Filename.dirname Sys.executable_name) (Filename.concat "../examples" name)
  in
  let trace = tmp "jsonl" in
  let cmd = Printf.sprintf "%s --trace %s > /dev/null 2>&1" (Filename.quote exe) (Filename.quote trace) in
  let rc = Sys.command cmd in
  if rc <> 0 then Alcotest.failf "%s exited with %d" exe rc;
  let entries = Trace.load_jsonl trace in
  (try Sys.remove trace with Sys_error _ -> ());
  entries

let test_example_traces_pass_oracle () =
  let saga = run_example "saga_orders.exe" in
  Alcotest.(check bool) "saga trace non-trivial" true (List.length saga > 50);
  passes "saga_orders trace" strict saga;
  let trip = run_example "travel_workflow.exe" in
  Alcotest.(check bool) "trip trace non-trivial" true (List.length trip > 20);
  passes "travel_workflow trace" strict trip

(* ------------------------------------------------------------------ *)

let () =
  let conformance =
    List.concat_map
      (fun model ->
        [
          Alcotest.test_case
            (Printf.sprintf "%s x%d clean" model.name seeds_per_model)
            `Quick
            (conformance_case model ~faulted:false);
          Alcotest.test_case
            (Printf.sprintf "%s x%d faulted" model.name seeds_per_model)
            `Quick
            (conformance_case model ~faulted:true);
        ])
      models
  in
  Alcotest.run "asset_conformance"
    [
      ("models", conformance);
      ( "oracle_negative",
        [
          Alcotest.test_case "dirty read" `Quick test_oracle_rejects_dirty_read;
          Alcotest.test_case "conflict cycle" `Quick test_oracle_rejects_conflict_cycle;
          Alcotest.test_case "non two-phase" `Quick test_oracle_rejects_non_two_phase;
          Alcotest.test_case "foreign release" `Quick test_oracle_rejects_foreign_release;
          Alcotest.test_case "split group commit" `Quick test_oracle_rejects_split_group_commit;
          Alcotest.test_case "AD after master abort" `Quick test_oracle_rejects_ad_after_master_abort;
          Alcotest.test_case "stale snapshot read" `Quick test_oracle_rejects_stale_snapshot_read;
          Alcotest.test_case "broken saga" `Quick test_broken_saga_rejected;
          Alcotest.test_case "broken distributed" `Quick test_broken_distributed_rejected;
        ] );
      ( "properties",
        [
          Alcotest.test_case "cursor stability legal but not SR" `Quick
            test_cursor_stability_legal_but_not_serializable;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "obligations discharged across crash" `Quick
            test_recovery_discharges_obligations;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring keeps tail" `Quick test_ring_keeps_tail;
          Alcotest.test_case "jsonl roundtrip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "engine reset_stats" `Quick test_engine_reset_stats;
        ] );
      ( "examples",
        [ Alcotest.test_case "example traces pass oracle" `Quick test_example_traces_pass_oracle ] );
    ]
