(* End-to-end recovery: the engine running over the persistent store
   with a segment-directory log, crash injection (losing the volatile buffer
   cache), and log-driven recovery — including delegation across the
   crash and checkpointing. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Pstore = Asset_storage.Persistent_store
module Log = Asset_wal.Log
module Recovery = Asset_wal.Recovery

let oid = Oid.of_int
let vi = Value.of_int

let tmp =
  let n = ref 0 in
  fun ext ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asset_rec_%d_%d.%s" (Unix.getpid ()) !n ext)

(* A persistent database with a segment-directory log, pre-populated
   with [objects] zeroed objects (flushed so the baseline is durable). *)
let make_persistent ~objects =
  let pages = tmp "pages" and logf = tmp "wal" in
  let ps = Pstore.create ~page_size:512 pages in
  let store = Pstore.to_store ps in
  for i = 1 to objects do
    Store.write store (oid i) (vi 0)
  done;
  Store.flush store;
  let log = Log.create_dir logf in
  let db = E.create ~log store in
  (db, ps, log, pages, logf)

let cleanup pages logf =
  (try Sys.remove pages with Sys_error _ -> ());
  Log.remove_dir logf

let geti store o = Value.to_int (Store.read_exn store (oid o))

(* Crash: lose the buffer cache, reload the log from disk, recover. *)
let crash_and_recover ps log logf =
  Log.force log;
  Log.close log;
  Pstore.crash_and_reopen ps;
  let store = Pstore.to_store ps in
  let recovered_log = Log.load_dir logf in
  let report = Recovery.recover recovered_log store in
  Log.close recovered_log;
  (store, report)

let test_committed_work_survives_crash () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 1) (vi 42)));
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 2) (vi 43))));
  (* Crash before any flush: the data pages never saw the updates. *)
  let store, report = crash_and_recover ps log logf in
  Alcotest.(check int) "ob1 recovered" 42 (geti store 1);
  Alcotest.(check int) "ob2 recovered" 43 (geti store 2);
  Alcotest.(check int) "two winners" 2 (List.length report.Recovery.winners);
  Pstore.close ps;
  cleanup pages logf

let test_inflight_work_rolled_back () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      (* A transaction that completes but never commits: holds its
         locks and its updates at "crash" time. *)
      let t = E.initiate db (fun () -> E.write db (oid 1) (vi 99)) in
      ignore (E.begin_ db t);
      ignore (E.wait db t);
      (* Flush the store so the dirty update is on disk — recovery must
         undo it. *)
      Store.flush (E.store db));
  let store, report = crash_and_recover ps log logf in
  Alcotest.(check int) "in-flight update undone" 0 (geti store 1);
  Alcotest.(check int) "one loser" 1 (List.length report.Recovery.losers);
  Pstore.close ps;
  cleanup pages logf

let test_engine_abort_then_crash () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      ignore
        (Asset_models.Atomic.run db (fun () ->
             E.write db (oid 1) (vi 7);
             failwith "dies"));
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 1) (vi 8))));
  let store, _ = crash_and_recover ps log logf in
  (* The aborted write must not resurface; the later commit must. *)
  Alcotest.(check int) "committed value wins" 8 (geti store 1);
  Pstore.close ps;
  cleanup pages logf

let test_delegation_across_crash () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 5)) in
      let t2 = E.initiate db (fun () -> ()) in
      ignore (E.begin_ db t1);
      ignore (E.begin_ db t2);
      ignore (E.wait db t1);
      E.delegate db ~from_:t1 ~to_:t2;
      ignore (E.commit db t2)
      (* t1 never terminates — crash now. *));
  let store, _ = crash_and_recover ps log logf in
  Alcotest.(check int) "update delegated to committed t2 survives" 5 (geti store 1);
  Pstore.close ps;
  cleanup pages logf

let test_group_commit_across_crash () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
      let t2 = E.initiate db (fun () -> E.write db (oid 2) (vi 2)) in
      ignore (E.form_dependency db Asset_deps.Dep_type.GC t1 t2);
      ignore (E.begin_ db t1);
      ignore (E.begin_ db t2);
      ignore (E.commit db t1));
  let store, report = crash_and_recover ps log logf in
  Alcotest.(check int) "member 1" 1 (geti store 1);
  Alcotest.(check int) "member 2" 2 (geti store 2);
  Alcotest.(check int) "both winners from one record" 2 (List.length report.Recovery.winners);
  Pstore.close ps;
  cleanup pages logf

let test_checkpoint_bounds_recovery () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      for i = 1 to 10 do
        ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 1) (vi i)))
      done;
      ignore (E.checkpoint db);
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 2) (vi 99))));
  let store, report = crash_and_recover ps log logf in
  (* Only the post-checkpoint transaction is scanned. *)
  Alcotest.(check bool) "scan starts past 0" true (report.Recovery.scanned_from > 0);
  Alcotest.(check int) "redone only the tail" 1 report.Recovery.updates_redone;
  Alcotest.(check int) "checkpointed value durable" 10 (geti store 1);
  Alcotest.(check int) "post-checkpoint value recovered" 99 (geti store 2);
  Pstore.close ps;
  cleanup pages logf

let test_saga_crash_mid_compensation_state () =
  (* A saga whose forward steps committed is durable: after a crash,
     components (being ordinary committed transactions) survive. *)
  let db, ps, log, pages, logf = make_persistent ~objects:8 in
  R.run_exn db (fun () ->
      let step n =
        Asset_models.Saga.step ~label:(string_of_int n)
          ~compensate:(fun () -> E.write db (oid n) (vi 0))
          (fun () -> E.write db (oid n) (vi n))
      in
      match
        Asset_models.Saga.run db
          [ step 1; step 2; Asset_models.Saga.step ~label:"fail" (fun () -> failwith "x") ]
      with
      | Asset_models.Saga.Rolled_back { compensated = 2; _ } -> ()
      | _ -> Alcotest.fail "expected rollback");
  let store, _ = crash_and_recover ps log logf in
  (* Compensations committed: state is clean even after the crash. *)
  Alcotest.(check int) "step 1 compensated durably" 0 (geti store 1);
  Alcotest.(check int) "step 2 compensated durably" 0 (geti store 2);
  Pstore.close ps;
  cleanup pages logf

let test_increments_across_crash () =
  (* Committed increments are redone; an in-flight incrementer's delta
     is logically undone, preserving the committed ones on the same
     counter. *)
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      let winner = E.initiate db (fun () -> E.increment db (oid 1) 10) in
      let loser = E.initiate db (fun () -> E.increment db (oid 1) 200) in
      ignore (E.begin_ db winner);
      ignore (E.begin_ db loser);
      ignore (E.wait db loser);
      ignore (E.commit db winner);
      (* loser never commits; crash. *)
      Store.flush (E.store db));
  let store, _ = crash_and_recover ps log logf in
  Alcotest.(check int) "committed delta kept, in-flight delta removed" 10 (geti store 1);
  Pstore.close ps;
  cleanup pages logf

let test_increment_abort_then_crash () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      let t1 = E.initiate db (fun () -> E.increment db (oid 1) 5) in
      let t2 = E.initiate db (fun () -> E.increment db (oid 1) 70) in
      ignore (E.begin_ db t1);
      ignore (E.begin_ db t2);
      ignore (E.wait db t1);
      ignore (E.wait db t2);
      ignore (E.abort db t1);
      ignore (E.commit db t2));
  let store, _ = crash_and_recover ps log logf in
  Alcotest.(check int) "CLR'd logical undo replayed" 70 (geti store 1);
  Pstore.close ps;
  cleanup pages logf

let test_double_recovery_idempotent () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 1) (vi 5)));
      let t = E.initiate db (fun () -> E.write db (oid 2) (vi 6)) in
      ignore (E.begin_ db t);
      ignore (E.wait db t));
  let store, _ = crash_and_recover ps log logf in
  let snap1 = Store.dump store in
  let recovered_log = Log.load_dir logf in
  ignore (Recovery.recover recovered_log store);
  Log.close recovered_log;
  Alcotest.(check bool) "second recovery is a no-op" true (Store.dump store = snap1);
  Pstore.close ps;
  cleanup pages logf

let test_large_volume_recovery () =
  let db, ps, log, pages, logf = make_persistent ~objects:50 in
  R.run_exn db (fun () ->
      for round = 1 to 20 do
        ignore
          (Asset_models.Atomic.run db (fun () ->
               for o = 1 to 50 do
                 E.write db (oid o) (vi (round * 100 + o))
               done))
      done);
  let store, report = crash_and_recover ps log logf in
  Alcotest.(check int) "1000 updates redone" 1000 report.Recovery.updates_redone;
  for o = 1 to 50 do
    Alcotest.(check int) "final round value" (2000 + o) (geti store o)
  done;
  Pstore.close ps;
  cleanup pages logf

(* ------------------------------------------------------------------ *)
(* Fuzzy checkpoints                                                   *)

let test_fuzzy_checkpoint_with_active_txn () =
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 1) (vi 7)));
      let t = E.initiate db (fun () -> E.write db (oid 2) (vi 99)) in
      ignore (E.begin_ db t);
      ignore (E.wait db t);
      (* The checkpoint runs over the active t and captures it. *)
      let begin_lsn = E.checkpoint db in
      Alcotest.(check bool) "fuzzy checkpoint completed" true (begin_lsn >= 0);
      ignore (Asset_models.Atomic.run db (fun () -> E.write db (oid 3) (vi 3)))
      (* t never commits — crash with its captured update on disk. *));
  let store, report = crash_and_recover ps log logf in
  Alcotest.(check bool) "scan starts at the fuzzy begin" true (report.Recovery.scanned_from > 0);
  Alcotest.(check int) "committed pre-checkpoint value" 7 (geti store 1);
  Alcotest.(check int) "captured in-flight update undone" 0 (geti store 2);
  Alcotest.(check int) "post-checkpoint winner redone" 3 (geti store 3);
  Pstore.close ps;
  cleanup pages logf

let test_delegation_across_fuzzy_checkpoint () =
  (* An update performed before the checkpoint, captured in the ATT,
     then delegated after it to a transaction that commits: recovery
     must attribute the captured update to the delegatee and keep it. *)
  let db, ps, log, pages, logf = make_persistent ~objects:4 in
  R.run_exn db (fun () ->
      let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 5)) in
      let t2 = E.initiate db (fun () -> ()) in
      ignore (E.begin_ db t1);
      ignore (E.begin_ db t2);
      ignore (E.wait db t1);
      ignore (E.checkpoint db);
      E.delegate db ~from_:t1 ~to_:t2;
      ignore (E.commit db t2)
      (* t1 never terminates — crash. *));
  let store, _ = crash_and_recover ps log logf in
  Alcotest.(check int) "captured update delegated to winner survives" 5 (geti store 1);
  Pstore.close ps;
  cleanup pages logf

let test_parallel_recovery_matches_serial () =
  let db, ps, log, pages, logf = make_persistent ~objects:50 in
  R.run_exn db (fun () ->
      for round = 1 to 20 do
        ignore
          (Asset_models.Atomic.run db (fun () ->
               for o = 1 to 50 do
                 E.write db (oid o) (vi ((round * 100) + o))
               done))
      done);
  Log.force log;
  Log.close log;
  Pstore.crash_and_reopen ps;
  let store = Pstore.to_store ps in
  let recovered_log = Log.load_dir logf in
  let report = Recovery.recover recovered_log store in
  Alcotest.(check int) "all updates redone" 1000 report.Recovery.updates_redone;
  for o = 1 to 50 do
    Alcotest.(check int) "final round value" (2000 + o) (geti store o)
  done;
  let snap = Store.dump store in
  (* A second pass over the recovered store must be a no-op: recovery
     reached its fixpoint in one pass. *)
  let again = Recovery.recover recovered_log store in
  Alcotest.(check bool) "second pass changes nothing" true (Store.dump store = snap);
  Alcotest.(check int) "same winner count" (List.length report.Recovery.winners)
    (List.length again.Recovery.winners);
  Log.close recovered_log;
  Pstore.close ps;
  cleanup pages logf

let () =
  Alcotest.run "asset_recovery_integration"
    [
      ( "crash_recovery",
        [
          Alcotest.test_case "committed work survives" `Quick test_committed_work_survives_crash;
          Alcotest.test_case "in-flight rolled back" `Quick test_inflight_work_rolled_back;
          Alcotest.test_case "abort then crash" `Quick test_engine_abort_then_crash;
          Alcotest.test_case "delegation across crash" `Quick test_delegation_across_crash;
          Alcotest.test_case "group commit across crash" `Quick test_group_commit_across_crash;
          Alcotest.test_case "checkpoint bounds recovery" `Quick test_checkpoint_bounds_recovery;
          Alcotest.test_case "saga compensation durable" `Quick
            test_saga_crash_mid_compensation_state;
          Alcotest.test_case "increments across crash" `Quick test_increments_across_crash;
          Alcotest.test_case "increment abort then crash" `Quick test_increment_abort_then_crash;
          Alcotest.test_case "double recovery idempotent" `Quick test_double_recovery_idempotent;
          Alcotest.test_case "large volume" `Quick test_large_volume_recovery;
        ] );
      ( "fuzzy_checkpoint",
        [
          Alcotest.test_case "fuzzy checkpoint with active txn" `Quick
            test_fuzzy_checkpoint_with_active_txn;
          Alcotest.test_case "delegation across fuzzy checkpoint" `Quick
            test_delegation_across_fuzzy_checkpoint;
          Alcotest.test_case "parallel recovery matches serial" `Quick
            test_parallel_recovery_matches_serial;
        ] );
    ]
