(* Tests for the ASSET engine: the full primitive set of section 2 with
   the commit/abort algorithms of section 4.2. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Status = Asset_core.Status
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Dt = Asset_deps.Dep_type
module Ops = Asset_lock.Mode.Ops

let oid = Oid.of_int
let vi = Value.of_int

(* Run [program db] against a fresh in-memory engine with [objects]
   integer objects initialized to 0; return the engine. *)
let with_db ?config ?(objects = 8) program = R.with_fresh_db ?config ~objects program

(* Run [f db dir] against an engine over a fresh segment-directory log
   in [dir], with the same 8 objects; then close and delete the log. *)
let with_dir_db name f =
  let dir = Filename.temp_dir name ".wal" in
  let log = Asset_wal.Log.create_dir dir in
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:8 ~value:(fun _ -> vi 0);
  let db = E.create ~log store in
  Fun.protect
    ~finally:(fun () ->
      Asset_wal.Log.close log;
      Asset_wal.Log.remove_dir dir)
    (fun () -> f db dir)

let commit_records log =
  Asset_wal.Log.fold log ~init:[] ~f:(fun acc _ r ->
      match r with Asset_wal.Record.Commit tids -> tids :: acc | _ -> acc)

let geti db o = Value.to_int (Store.read_exn (E.store db) (oid o))
let existsi db o = Store.exists (E.store db) (oid o)

(* ------------------------------------------------------------------ *)
(* initiate / begin / self / parent                                    *)

let test_initiate_returns_tid_and_status () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> ()) in
         Alcotest.(check bool) "non-null" false (Tid.is_null t);
         Alcotest.(check string) "initiated" "initiated"
           (Status.to_string (E.status db t))))

let test_initiate_resource_limit () =
  let config = { E.default_config with E.max_transactions = 2 } in
  ignore
    (with_db ~config (fun db ->
         let t1 = E.initiate db (fun () -> ()) in
         let t2 = E.initiate db (fun () -> ()) in
         let t3 = E.initiate db (fun () -> ()) in
         Alcotest.(check bool) "t1 ok" false (Tid.is_null t1);
         Alcotest.(check bool) "t2 ok" false (Tid.is_null t2);
         Alcotest.(check bool) "t3 refused (null tid)" true (Tid.is_null t3)))

let test_begin_only_from_initiated () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> ()) in
         Alcotest.(check bool) "first begin" true (E.begin_ db t);
         Alcotest.(check bool) "second begin fails" false (E.begin_ db t);
         ignore (E.commit db t);
         Alcotest.(check bool) "begin after commit fails" false (E.begin_ db t)))

let test_self_and_parent () =
  ignore
    (with_db (fun db ->
         let observed_self = ref Tid.null and observed_parent = ref Tid.null in
         let child = ref Tid.null in
         let parent_body () =
           let c =
             E.initiate db (fun () ->
                 observed_self := E.self db;
                 observed_parent := E.parent db)
           in
           child := c;
           ignore (E.begin_ db c);
           ignore (E.wait db c);
           E.delegate db ~from_:c ~to_:(E.self db);
           ignore (E.commit db c)
         in
         let p = E.initiate db parent_body in
         ignore (E.begin_ db p);
         ignore (E.commit db p);
         Alcotest.(check bool) "self is the child" true (Tid.equal !observed_self !child);
         Alcotest.(check bool) "parent is p" true (Tid.equal !observed_parent p)))

let test_self_outside_transaction_is_null () =
  ignore
    (with_db (fun db ->
         Alcotest.(check bool) "null self" true (Tid.is_null (E.self db));
         Alcotest.(check bool) "null parent" true (Tid.is_null (E.parent db))))

let test_parent_recorded_at_initiate () =
  ignore
    (with_db (fun db ->
         let inner_parent = ref Tid.null in
         let p =
           E.initiate db (fun () ->
               let c = E.initiate db (fun () -> ()) in
               inner_parent := E.parent_of db c;
               ignore (E.begin_ db c);
               ignore (E.commit db c))
         in
         ignore (E.begin_ db p);
         ignore (E.commit db p);
         Alcotest.(check bool) "child's parent is p" true (Tid.equal !inner_parent p)))

(* ------------------------------------------------------------------ *)
(* read / write / failure atomicity                                    *)

let test_write_then_commit_persists () =
  let db =
    with_db (fun db ->
        let t = E.initiate db (fun () -> E.write db (oid 1) (vi 42)) in
        ignore (E.begin_ db t);
        Alcotest.(check bool) "commit ok" true (E.commit db t))
  in
  Alcotest.(check int) "value" 42 (geti db 1)

let test_abort_restores_before_images () =
  let db =
    with_db (fun db ->
        let t =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 10);
              E.write db (oid 1) (vi 20);
              E.write db (oid 2) (vi 30))
        in
        ignore (E.begin_ db t);
        ignore (E.wait db t);
        Alcotest.(check bool) "abort ok" true (E.abort db t))
  in
  Alcotest.(check int) "ob1 restored" 0 (geti db 1);
  Alcotest.(check int) "ob2 restored" 0 (geti db 2)

let test_abort_deletes_created_objects () =
  let db =
    with_db (fun db ->
        let t = E.initiate db (fun () -> E.write db (oid 100) (vi 1)) in
        ignore (E.begin_ db t);
        ignore (E.wait db t);
        ignore (E.abort db t))
  in
  Alcotest.(check bool) "created object gone" false (existsi db 100)

let test_body_exception_aborts () =
  let db =
    with_db (fun db ->
        let t =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 5);
              failwith "boom")
        in
        ignore (E.begin_ db t);
        Alcotest.(check bool) "commit returns 0" false (E.commit db t);
        Alcotest.(check bool) "aborted" true (E.is_aborted db t);
        match E.failure_of db t with
        | Some (Failure msg) -> Alcotest.(check string) "failure recorded" "boom" msg
        | _ -> Alcotest.fail "expected recorded failure")
  in
  Alcotest.(check int) "undone" 0 (geti db 1)

let test_read_outside_transaction_rejected () =
  ignore
    (with_db (fun db ->
         match E.read db (oid 1) with
         | exception E.Not_in_transaction -> ()
         | _ -> Alcotest.fail "expected Not_in_transaction"))

let test_operations_after_abort_unwind () =
  let reached_after = ref false in
  let db =
    with_db (fun db ->
        let t =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              ignore (E.abort db (E.self db));
              reached_after := true (* must not run: abort unwinds *))
        in
        ignore (E.begin_ db t);
        Alcotest.(check bool) "commit fails" false (E.commit db t))
  in
  Alcotest.(check bool) "unwound" false !reached_after;
  Alcotest.(check int) "undone" 0 (geti db 1)

(* ------------------------------------------------------------------ *)
(* Locking behaviour through the engine                                *)

let test_reader_blocks_until_writer_commits () =
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let w =
           E.initiate db (fun () ->
               E.write db (oid 1) (vi 7);
               Sched.yield ();
               order := "writer-done" :: !order)
         in
         let r =
           E.initiate db (fun () ->
               let v = E.read_exn db (oid 1) in
               order := Printf.sprintf "reader-saw-%d" (Value.to_int v) :: !order)
         in
         ignore (E.begin_ db w);
         ignore (E.begin_ db r);
         Alcotest.(check bool) "w commits" true (E.commit db w);
         Alcotest.(check bool) "r commits" true (E.commit db r)));
  Alcotest.(check (list string)) "strict 2PL order" [ "writer-done"; "reader-saw-7" ]
    (List.rev !order)

let test_two_readers_share () =
  ignore
    (with_db (fun db ->
         let mk () =
           E.initiate db (fun () ->
               ignore (E.read db (oid 1));
               Sched.yield ();
               ignore (E.read db (oid 1)))
         in
         let r1 = mk () and r2 = mk () in
         ignore (E.begin_ db r1);
         ignore (E.begin_ db r2);
         Alcotest.(check bool) "r1" true (E.commit db r1);
         Alcotest.(check bool) "r2" true (E.commit db r2);
         Alcotest.(check int) "no lock waits" 0 (List.assoc "lock_waits" (E.stats db))))

let test_deadlock_victim_aborted () =
  let db =
    with_db (fun db ->
        let t1 =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              Sched.yield ();
              E.write db (oid 2) (vi 1))
        in
        let t2 =
          E.initiate db (fun () ->
              E.write db (oid 2) (vi 2);
              Sched.yield ();
              E.write db (oid 1) (vi 2))
        in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        let ok1 = E.commit db t1 and ok2 = E.commit db t2 in
        (* Exactly one survives the deadlock. *)
        Alcotest.(check bool) "one commits" true (ok1 <> ok2))
  in
  Alcotest.(check int) "one victim" 1 (List.assoc "deadlock_victims" (E.stats db));
  (* The surviving transaction's writes are consistent: both objects
     carry the same writer's value. *)
  Alcotest.(check int) "consistent outcome" (geti db 1) (geti db 2)

let test_deadlock_detection_disabled_raises () =
  let config = { E.default_config with E.deadlock_detection = false } in
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:4 ~value:(fun _ -> vi 0);
  let db = E.create ~config store in
  let outcome =
    R.run db (fun () ->
        let t1 =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              Sched.yield ();
              E.write db (oid 2) (vi 1))
        in
        let t2 =
          E.initiate db (fun () ->
              E.write db (oid 2) (vi 2);
              Sched.yield ();
              E.write db (oid 1) (vi 2))
        in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.commit db t1);
        ignore (E.commit db t2))
  in
  Alcotest.(check bool) "deadlock surfaced" true outcome.R.deadlocked

(* The text a deadlocked run reports, pinned byte for byte: each
   parked fiber's label, then its wait reason.  t1 and t2 cross-write;
   t3, t4 and t5 have empty bodies and depend on them (CD on t1, AD on
   t2, GC with t1).  Other fibers wait for t2, commit t1 and commit
   t4 and t5, while the main program commits t3.  Nothing resolves
   the lock cycle, so the scheduler raises [Deadlock] with every
   reason the engine parks on: lock waits, [wait], and each kind of
   commit wait. *)
let test_deadlock_reasons_text () =
  let config = { E.default_config with E.deadlock_detection = false } in
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:4 ~value:(fun _ -> vi 0);
  let db = E.create ~config store in
  let outcome =
    R.run db (fun () ->
        let cross a b v =
          E.initiate db (fun () ->
              E.write db (oid a) (vi v);
              Sched.yield ();
              E.write db (oid b) (vi v))
        in
        let t1 = cross 1 2 1 in
        let t2 = cross 2 1 2 in
        let empty () = E.initiate db (fun () -> ()) in
        let t3 = empty () and t4 = empty () and t5 = empty () in
        ignore (E.form_dependency db Dt.CD t1 t3);
        ignore (E.form_dependency db Dt.AD t2 t5);
        ignore (E.form_dependency db Dt.GC t1 t4);
        ignore (E.begin_many db [ t1; t2; t3; t4; t5 ]);
        E.spawn db ~label:"waiter" (fun () -> ignore (E.wait db t2));
        E.spawn db ~label:"c1" (fun () -> ignore (E.commit db t1));
        E.spawn db ~label:"c4" (fun () -> ignore (E.commit db t4));
        E.spawn db ~label:"c5" (fun () -> ignore (E.commit db t5));
        ignore (E.commit db t3))
  in
  match outcome.R.result with
  | Error (Sched.Deadlock reasons) ->
      Alcotest.(check (list string))
        "reasons"
        [
          "c1: commit(t1): awaiting completion";
          "c4: commit(t4): group not ready";
          "c5: commit(t5): AD on t2";
          "main: commit(t3): CD on t1";
          "t1: lock ob2/W held by t2";
          "t2: lock ob1/W held by t1";
          "waiter: wait(t2)";
        ]
        (List.sort compare reasons)
  | Ok () -> Alcotest.fail "expected a deadlock"
  | Error e -> Alcotest.failf "expected a deadlock, got %s" (Printexc.to_string e)

let test_find_cycle_deadlock_workload () =
  (* A deadlock-prone bank workload under a seeded random chooser that
     checks the lock manager at every scheduling step: [find_cycle] must
     agree with a reference waits-for graph built from the four
     accounts' Figure-1 lists — a cycle made of reference edges, and
     none exactly when the reference graph is acyclic. *)
  let module Bank = Asset_workload.Bank in
  let module Lock = Asset_lock.Lock_manager in
  let store = Asset_storage.Heap_store.store () in
  Bank.setup store ~accounts:4 ~balance:1_000;
  let db = E.create store in
  let rng = Asset_util.Rng.create 7 in
  let accounts = List.init 4 (fun i -> Bank.account (i + 1)) in
  let steps = ref 0 in
  let check cands =
    incr steps;
    if not (Waits_reference.find_cycle_agrees (E.locks db) accounts) then
      Alcotest.failf "step %d: find_cycle disagrees with the reference graph" !steps;
    Asset_util.Rng.int rng (Array.length cands)
  in
  R.run_exn ~policy:(Sched.Controlled check) db (fun () ->
      ignore (Bank.run_transfers db ~accounts:4 ~n_txns:24));
  Alcotest.(check int) "money conserved" (4 * 1_000) (Bank.total db ~accounts:4);
  Alcotest.(check bool) "deadlocks actually exercised" true
    (List.assoc "deadlock_victims" (E.stats db) > 0);
  (* The engine's own deadlock searches surface through Engine.stats,
     on top of the one per step made above. *)
  Alcotest.(check bool) "cycle_checks surfaced" true
    (List.assoc "lock.cycle_checks" (E.stats db) > !steps);
  Alcotest.(check bool) "nothing pending" false (Lock.has_pending (E.locks db))

(* ------------------------------------------------------------------ *)
(* update atomicity                                                    *)

(* No latch guards an update: its before-image read, log append and
   write must fall inside one scheduling segment.  The watched store
   opens an update at [preserve] — the engine's first step after the
   before-image read, which must have happened in the same segment —
   and closes it at the write of that object; the chooser flags any
   fiber switch that finds an update open.  Violations are recorded,
   not raised: an exception inside a transaction body would only abort
   that transaction. *)
type update_watch = {
  mutable segment : int;
  mutable open_update : Oid.t option;
  mutable updates : int;
  read_in : (Oid.t, int) Hashtbl.t; (* segment of each object's last read *)
  mutable violation : string option; (* the first one *)
}

let flag w fmt =
  Format.kasprintf (fun msg -> if w.violation = None then w.violation <- Some msg) fmt

let watched_store w =
  let base = Asset_storage.Mvcc_store.wrap (Asset_storage.Heap_store.store ()) in
  let m = Option.get base.Store.mvcc in
  let preserve o before =
    if Hashtbl.find_opt w.read_in o <> Some w.segment then
      flag w "update of %a: before image read in an earlier segment" Oid.pp o;
    w.open_update <- Some o;
    w.updates <- w.updates + 1;
    m.Store.preserve o before
  in
  {
    base with
    Store.read =
      (fun o ->
        Hashtbl.replace w.read_in o w.segment;
        base.Store.read o);
    write =
      (fun o v ->
        if Option.equal Oid.equal w.open_update (Some o) then w.open_update <- None;
        base.Store.write o v);
    mvcc = Some { m with Store.preserve };
  }

(* Eight transactions, each updating through every update path:
   opposite-order read-modify-writes on objects 1 and 5 (lock upgrades
   and deadlock victims), an increment, an escrow decrement that only
   three can hold at once (violations abort), and an enqueue. *)
let run_update_mix pick =
  let w =
    { segment = 0; open_update = None; updates = 0; read_in = Hashtbl.create 8; violation = None }
  in
  let store = watched_store w in
  List.iter
    (fun (o, v) -> Store.write store (oid o) v)
    [ (1, vi 0); (2, vi 0); (3, vi 3); (4, Value.of_queue []); (5, vi 0) ];
  let db = E.create store in
  let choose cands =
    Option.iter (flag w "fiber switch inside the update of %a" Oid.pp) w.open_update;
    w.segment <- w.segment + 1;
    pick (Array.length cands)
  in
  let tids = ref [] in
  R.run_exn ~policy:(Sched.Controlled choose) db (fun () ->
      let bump o = E.modify db (oid o) (fun v -> Value.incr_int (Option.get v) 1) in
      let body i () =
        let a, b = if i mod 2 = 0 then (1, 5) else (5, 1) in
        bump a;
        Sched.yield ();
        E.increment db (oid 2) 1;
        Sched.yield ();
        E.escrow db (oid 3) (-1) ~lo:0 ~hi:100;
        Sched.yield ();
        E.enqueue db (oid 4) (string_of_int i);
        Sched.yield ();
        bump b
      in
      tids := List.init 8 (fun i -> E.initiate db (body i));
      ignore (E.begin_many db !tids);
      List.iter (fun t -> E.spawn db ~label:"committer" (fun () -> ignore (E.commit db t))) !tids;
      E.await_terminated db !tids);
  let committed = List.length (List.filter (E.is_committed db) !tids) in
  (db, w, committed)

let test_update_atomicity () =
  let policies =
    ("fifo", fun _ -> 0)
    :: List.map
         (fun seed ->
           let rng = Asset_util.Rng.create seed in
           (Printf.sprintf "random seed %d" seed, Asset_util.Rng.int rng))
         [ 1; 2; 3; 4; 5 ]
  in
  List.iter
    (fun (name, pick) ->
      let db, w, committed = run_update_mix pick in
      let stat k = List.assoc k (E.stats db) in
      Alcotest.(check (option string)) (name ^ ": no split update") None w.violation;
      Alcotest.(check bool) (name ^ ": updates watched") true (w.updates > 0);
      Alcotest.(check bool) (name ^ ": contended") true (stat "lock_waits" > 0);
      Alcotest.(check bool) (name ^ ": escrow ran") true (stat "escrow_ops" > 0);
      Alcotest.(check bool) (name ^ ": some commit") true (committed > 0);
      Alcotest.(check int) (name ^ ": increments") committed (geti db 2);
      Alcotest.(check int) (name ^ ": escrow") (3 - committed) (geti db 3);
      Alcotest.(check int) (name ^ ": rmw") (2 * committed) (geti db 1 + geti db 5);
      Alcotest.(check int)
        (name ^ ": queue") committed
        (List.length (Value.to_queue (Store.read_exn (E.store db) (oid 4)))))
    policies

(* ------------------------------------------------------------------ *)
(* wait / commit blocking semantics                                    *)

let test_wait_semantics () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> Sched.yield ()) in
         ignore (E.begin_ db t);
         Alcotest.(check bool) "wait on running returns 1 after completion" true (E.wait db t);
         ignore (E.commit db t);
         Alcotest.(check bool) "wait on committed" true (E.wait db t);
         let a = E.initiate db (fun () -> failwith "no") in
         ignore (E.begin_ db a);
         Alcotest.(check bool) "wait on aborted returns 0" false (E.wait db a)))

let test_commit_blocks_until_completion () =
  let completed_first = ref false in
  ignore
    (with_db (fun db ->
         let t =
           E.initiate db (fun () ->
               Sched.yield ();
               Sched.yield ();
               completed_first := true)
         in
         ignore (E.begin_ db t);
         Alcotest.(check bool) "commit ok" true (E.commit db t);
         Alcotest.(check bool) "body finished before commit returned" true !completed_first))

let test_commit_idempotent () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> ()) in
         ignore (E.begin_ db t);
         Alcotest.(check bool) "first" true (E.commit db t);
         Alcotest.(check bool) "second returns 1" true (E.commit db t)))

let test_abort_semantics () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> ()) in
         ignore (E.begin_ db t);
         ignore (E.commit db t);
         Alcotest.(check bool) "abort after commit returns 0" false (E.abort db t);
         let u = E.initiate db (fun () -> ()) in
         ignore (E.begin_ db u);
         ignore (E.wait db u);
         Alcotest.(check bool) "abort ok" true (E.abort db u);
         Alcotest.(check bool) "abort again returns 1" true (E.abort db u);
         Alcotest.(check bool) "commit after abort returns 0" false (E.commit db u)))

let test_abort_of_initiated_transaction () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> ()) in
         Alcotest.(check bool) "abort initiated" true (E.abort db t);
         Alcotest.(check bool) "begin then fails" false (E.begin_ db t)))

(* ------------------------------------------------------------------ *)
(* delegate                                                            *)

let test_delegate_then_commit_keeps_updates () =
  let db =
    with_db (fun db ->
        let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 5)) in
        let t2 = E.initiate db (fun () -> ()) in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.wait db t1);
        E.delegate db ~from_:t1 ~to_:t2;
        (* t1 aborts — but the update now belongs to t2. *)
        ignore (E.abort db t1);
        Alcotest.(check bool) "t2 commits" true (E.commit db t2))
  in
  Alcotest.(check int) "update survived delegator abort" 5 (geti db 1)

let test_delegatee_abort_undoes_delegated_updates () =
  let db =
    with_db (fun db ->
        let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 5)) in
        let t2 = E.initiate db (fun () -> ()) in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.wait db t1);
        E.delegate db ~from_:t1 ~to_:t2;
        ignore (E.wait db t2);
        ignore (E.abort db t2);
        (* t1 commits but is no longer responsible for anything. *)
        Alcotest.(check bool) "t1 commits empty" true (E.commit db t1))
  in
  Alcotest.(check int) "delegated update undone by t2's abort" 0 (geti db 1)

let test_partial_delegation () =
  let db =
    with_db (fun db ->
        let t1 =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 11);
              E.write db (oid 2) (vi 22))
        in
        let t2 = E.initiate db (fun () -> ()) in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.wait db t1);
        E.delegate db ~oids:[ oid 1 ] ~from_:t1 ~to_:t2;
        ignore (E.commit db t2);
        ignore (E.wait db t1);
        ignore (E.abort db t1))
  in
  Alcotest.(check int) "delegated object committed" 11 (geti db 1);
  Alcotest.(check int) "retained object undone" 0 (geti db 2)

let test_delegate_to_initiated_transaction () =
  (* "this separation allows us to delegate to or permit sharing with
     an initiated transaction before this transaction begins". *)
  let db =
    with_db (fun db ->
        let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 9)) in
        ignore (E.begin_ db t1);
        ignore (E.wait db t1);
        let t2 = E.initiate db (fun () -> E.write db (oid 2) (vi 8)) in
        (* t2 is initiated, not begun: delegation is legal. *)
        E.delegate db ~from_:t1 ~to_:t2;
        ignore (E.begin_ db t2);
        Alcotest.(check bool) "t2 commits both" true (E.commit db t2))
  in
  Alcotest.(check int) "delegated" 9 (geti db 1);
  Alcotest.(check int) "own" 8 (geti db 2)

let test_delegate_to_terminated_rejected () =
  ignore
    (with_db (fun db ->
         let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
         let t2 = E.initiate db (fun () -> ()) in
         ignore (E.begin_ db t2);
         ignore (E.commit db t2);
         ignore (E.begin_ db t1);
         ignore (E.wait db t1);
         match E.delegate db ~from_:t1 ~to_:t2 with
         | exception Invalid_argument _ -> ignore (E.abort db t1)
         | () -> Alcotest.fail "expected rejection"))

let test_delegate_withdraws_pending_requests () =
  (* Regression (PR 2): delegating an object while the delegator's
     lock request for it is still queued must withdraw that pending
     request — otherwise the delegator is granted a lock for work it
     no longer owns, or wedges the queue.  End-to-end: holder holds
     W(o1); t1's body blocks requesting it; the main fiber delegates
     o1 from t1 to t3 while the request is pending; the history must
     still pass the cooperative oracle. *)
  let pending_has db tid =
    List.exists
      (fun (t, _, _) -> Tid.equal t tid)
      (Asset_lock.Lock_manager.pending_of (E.locks db) (oid 1))
  in
  let (), entries =
    Asset_obs.Trace.with_memory (fun () ->
        ignore
          (with_db (fun db ->
               let holder = E.initiate db (fun () -> E.write db (oid 1) (vi 9)) in
               let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
               let t3 = E.initiate db (fun () -> ()) in
               ignore (E.begin_ db holder);
               ignore (E.wait db holder);
               ignore (E.begin_ db t1);
               (* Let t1's body run until it parks on the held lock. *)
               Sched.yield ();
               Sched.yield ();
               Alcotest.(check bool) "t1 queued behind holder" true (pending_has db t1);
               E.delegate db ~from_:t1 ~to_:t3 ~oids:[ oid 1 ];
               Alcotest.(check bool)
                 "pending request withdrawn by delegation" false (pending_has db t1);
               ignore (E.begin_ db t3);
               (* Holder commits, releasing the lock; t1's body re-requests,
                  acquires, finishes; everyone terminates cleanly. *)
               Alcotest.(check bool) "holder commits" true (E.commit db holder);
               ignore (E.wait db t1);
               Alcotest.(check bool) "t1 commits" true (E.commit db t1);
               Alcotest.(check bool) "t3 commits" true (E.commit db t3))))
  in
  match Asset_obs.Oracle.check_cooperative_history entries with
  | [] -> ()
  | vs ->
      Alcotest.failf "oracle: %d violation(s): %s" (List.length vs)
        (String.concat "; "
           (List.map (Format.asprintf "%a" Asset_obs.Oracle.pp_violation) vs))

(* ------------------------------------------------------------------ *)
(* permit                                                              *)

let test_permit_enables_conflicting_access () =
  let db =
    with_db (fun db ->
        let t1 =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              Sched.yield ();
              Sched.yield ())
        in
        let t2 = E.initiate db (fun () -> E.write db (oid 1) (vi 2)) in
        ignore (E.begin_ db t1);
        (* Let t1 take its lock first. *)
        ignore (E.wait db t1) |> ignore;
        E.permit db ~from_:t1 ~to_:t2 ~oids:[ oid 1 ] ~ops:Ops.all;
        ignore (E.begin_ db t2);
        Alcotest.(check bool) "t2 commits despite t1's lock" true (E.commit db t2);
        Alcotest.(check bool) "t1 commits" true (E.commit db t1))
  in
  ignore db

let test_permit_all_objects_form () =
  (* permit(ti, tj): all operations on every object ti accessed. *)
  ignore
    (with_db (fun db ->
         let t1 =
           E.initiate db (fun () ->
               E.write db (oid 1) (vi 1);
               E.write db (oid 2) (vi 2);
               Sched.yield ();
               Sched.yield ())
         in
         let t2 =
           E.initiate db (fun () ->
               ignore (E.read db (oid 1));
               ignore (E.read db (oid 2)))
         in
         ignore (E.begin_ db t1);
         ignore (E.wait db t1) |> ignore;
         E.permit db ~from_:t1 ~to_:t2;
         ignore (E.begin_ db t2);
         Alcotest.(check bool) "t2 reads uncommitted via blanket permit" true (E.commit db t2);
         Alcotest.(check bool) "t1" true (E.commit db t1)))

let test_abort_loses_cooperating_updates () =
  (* Section 4.2, abort step 2: installing before images "implies that
     subsequent updates done by cooperating transactions will also be
     lost". *)
  let db =
    with_db (fun db ->
        let t1 =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 10);
              Sched.yield ();
              Sched.yield ();
              Sched.yield ())
        in
        let t2 = E.initiate db (fun () -> E.write db (oid 1) (vi 20)) in
        ignore (E.begin_ db t1);
        Sched.yield ();
        E.permit db ~from_:t1 ~to_:t2 ~oids:[ oid 1 ] ~ops:Ops.all;
        E.permit db ~from_:t2 ~to_:t1 ~oids:[ oid 1 ] ~ops:Ops.all;
        ignore (E.begin_ db t2);
        (* t2 commits its cooperative update... *)
        Alcotest.(check bool) "t2 commits" true (E.commit db t2);
        (* ...then t1 aborts, installing the before image of its own
           earlier write and clobbering t2's committed update. *)
        ignore (E.wait db t1);
        ignore (E.abort db t1))
  in
  Alcotest.(check int) "cooperating update lost" 0 (geti db 1)

(* ------------------------------------------------------------------ *)
(* form_dependency: CD / AD / GC                                       *)

let test_cd_orders_commits () =
  let committed = ref [] in
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> Sched.yield ()) in
         let tj = E.initiate db (fun () -> ()) in
         Alcotest.(check bool) "CD formed" true (E.form_dependency db Dt.CD ti tj);
         ignore (E.begin_ db ti);
         ignore (E.begin_ db tj);
         (* Commit tj from a separate fiber: it must wait for ti. *)
         E.spawn db ~label:"commit-tj" (fun () ->
             ignore (E.commit db tj);
             committed := "tj" :: !committed);
         ignore (E.commit db ti);
         committed := "ti" :: !committed;
         E.await_terminated db [ ti; tj ]));
  (* tj's commit could only finish after ti terminated. *)
  Alcotest.(check bool) "ti first" true (List.rev !committed = [ "ti"; "tj" ])

let test_cd_allows_commit_after_master_abort () =
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> ()) in
         let tj = E.initiate db (fun () -> ()) in
         ignore (E.form_dependency db Dt.CD ti tj);
         ignore (E.begin_ db ti);
         ignore (E.begin_ db tj);
         ignore (E.wait db ti);
         ignore (E.abort db ti);
         Alcotest.(check bool) "tj may still commit" true (E.commit db tj)))

let test_ad_abort_propagates () =
  let db =
    with_db (fun db ->
        let ti = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
        let tj = E.initiate db (fun () -> E.write db (oid 2) (vi 2)) in
        ignore (E.form_dependency db Dt.AD ti tj);
        ignore (E.begin_ db ti);
        ignore (E.begin_ db tj);
        ignore (E.wait db ti);
        ignore (E.wait db tj);
        ignore (E.abort db ti);
        Alcotest.(check bool) "tj aborted by AD" true (E.is_aborted db tj);
        Alcotest.(check bool) "commit tj fails" false (E.commit db tj))
  in
  Alcotest.(check int) "tj's work undone" 0 (geti db 2)

let test_ad_dependent_waits_then_aborts () =
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> Sched.yield ()) in
         let tj = E.initiate db (fun () -> ()) in
         ignore (E.form_dependency db Dt.AD ti tj);
         ignore (E.begin_ db ti);
         ignore (E.begin_ db tj);
         E.spawn db ~label:"abort-ti" (fun () ->
             ignore (E.wait db ti);
             ignore (E.abort db ti));
         (* tj's commit blocks on the AD until ti terminates — here by
            aborting, which dooms tj. *)
         Alcotest.(check bool) "tj cannot commit" false (E.commit db tj)))

let test_ad_commit_after_master_commits () =
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> ()) in
         let tj = E.initiate db (fun () -> ()) in
         ignore (E.form_dependency db Dt.AD ti tj);
         ignore (E.begin_ db ti);
         ignore (E.begin_ db tj);
         ignore (E.commit db ti);
         Alcotest.(check bool) "tj commits after ti" true (E.commit db tj)))

let test_form_dependency_rejects_cycle () =
  ignore
    (with_db (fun db ->
         let a = E.initiate db (fun () -> ()) in
         let b = E.initiate db (fun () -> ()) in
         Alcotest.(check bool) "forward ok" true (E.form_dependency db Dt.CD a b);
         Alcotest.(check bool) "reverse rejected" false (E.form_dependency db Dt.CD b a);
         ignore (E.begin_ db a);
         ignore (E.begin_ db b);
         ignore (E.commit db a);
         ignore (E.commit db b)))

let test_gc_group_commits_together () =
  (* One commit record names every member, and the one force that
     makes it durable is a group commit.  A directory log, so the force
     is real. *)
  with_dir_db "asset_gc" (fun db _ ->
      let group = ref [] in
      R.run_exn db (fun () ->
        let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
        let t2 = E.initiate db (fun () -> E.write db (oid 2) (vi 2)) in
        let t3 = E.initiate db (fun () -> E.write db (oid 3) (vi 3)) in
        ignore (E.form_dependency db Dt.GC t1 t2);
        ignore (E.form_dependency db Dt.GC t2 t3);
        group := [ t1; t2; t3 ];
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.begin_ db t3);
        (* Committing any one member commits the transitive group. *)
        Alcotest.(check bool) "t2 commit" true (E.commit db t2);
        Alcotest.(check bool) "t1 already committed" true (E.commit db t1);
        Alcotest.(check bool) "t3 already committed" true (E.commit db t3);
        Alcotest.(check bool) "statuses" true
          (E.is_committed db t1 && E.is_committed db t2 && E.is_committed db t3));
      (match commit_records (E.log db) with
      | [ tids ] ->
          Alcotest.(check (list int)) "one record names all three"
            (List.map Tid.to_int !group)
            (List.sort compare (List.map Tid.to_int tids))
      | l -> Alcotest.failf "expected one commit record, got %d" (List.length l));
      Alcotest.(check int) "one force" 1 (Asset_wal.Log.force_count (E.log db));
      Alcotest.(check int) "group commit counted once" 1 (List.assoc "group_commits" (E.stats db));
      Alcotest.(check (list int)) "all effects present" [ 1; 2; 3 ] [ geti db 1; geti db 2; geti db 3 ])

let test_group_commit_coalesces_forces () =
  (* 8 concurrent committers over a segment-directory log stage their
     commit records and park; the quiescence flush forces them all at
     once: one force, yet every commit record is durable afterwards. *)
  with_dir_db "asset_gcommit" (fun db dir ->
      R.run_exn db (fun () ->
          let tids =
            List.init 8 (fun i -> E.initiate db (fun () -> E.write db (oid (i + 1)) (vi (i + 1))))
          in
          List.iter (fun t -> ignore (E.begin_ db t)) tids;
          List.iter
            (fun t -> E.spawn db ~label:"committer" (fun () -> ignore (E.commit db t)))
            tids;
          E.await_terminated db tids);
      Alcotest.(check int) "8 commits share one force" 1 (Asset_wal.Log.force_count (E.log db));
      Asset_wal.Log.close (E.log db);
      let l2 = Asset_wal.Log.load_dir dir in
      let commits = List.length (commit_records l2) in
      Asset_wal.Log.close l2;
      Alcotest.(check int) "all 8 commit records durable" 8 commits)

let test_group_commit_serial_forces_each () =
  (* A lone fiber committing one transaction after another: each
     commit parks on its own force, so nothing is shared. *)
  with_dir_db "asset_gcommit1" (fun db _ ->
      R.run_exn db (fun () ->
          for i = 1 to 3 do
            let t = E.initiate db (fun () -> E.write db (oid i) (vi i)) in
            ignore (E.begin_ db t);
            Alcotest.(check bool) "acknowledged" true (E.commit db t)
          done);
      Alcotest.(check int) "one force per commit" 3 (Asset_wal.Log.force_count (E.log db)))

let test_lone_committer_forced_at_quiescence () =
  (* A commits while B waits for a flag that A sets only once its
     commit is acknowledged.  No other fiber can run, so only the
     quiescence flush can force A's record: A must be acknowledged
     after one force, and the scheduler must not report a deadlock. *)
  with_dir_db "asset_lone" (fun db _ ->
      let acked = ref false in
      let outcome =
        R.run db (fun () ->
            E.spawn db ~label:"B" (fun () -> Sched.wait_until ~reason:"A acked" (fun () -> !acked));
            E.spawn db ~label:"A" (fun () ->
                let t = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
                ignore (E.begin_ db t);
                acked := E.commit db t))
      in
      (match outcome.R.result with
      | Ok () -> ()
      | Error e -> Alcotest.failf "run failed: %s" (Printexc.to_string e));
      Alcotest.(check bool) "A acknowledged" true !acked;
      Alcotest.(check int) "one force" 1 (Asset_wal.Log.force_count (E.log db)))

let test_gc_member_abort_dooms_group () =
  let db =
    with_db (fun db ->
        let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
        let t2 = E.initiate db (fun () -> failwith "member dies") in
        ignore (E.form_dependency db Dt.GC t1 t2);
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        Alcotest.(check bool) "group cannot commit" false (E.commit db t1))
  in
  Alcotest.(check int) "t1's write undone" 0 (geti db 1)

let test_gc_single_log_record () =
  ignore
    (with_db (fun db ->
         let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
         let t2 = E.initiate db (fun () -> E.write db (oid 2) (vi 2)) in
         ignore (E.form_dependency db Dt.GC t1 t2);
         ignore (E.begin_ db t1);
         ignore (E.begin_ db t2);
         ignore (E.commit db t1);
         (* Exactly one Commit record naming both members. *)
         let commits = ref [] in
         Asset_wal.Log.iter (E.log db) (fun _ r ->
             match r with Asset_wal.Record.Commit tids -> commits := tids :: !commits | _ -> ());
         match !commits with
         | [ group ] -> Alcotest.(check int) "both in one record" 2 (List.length group)
         | l -> Alcotest.failf "expected one commit record, got %d" (List.length l)))

(* Extension: BD — begin gated on the master's commit. *)
let test_bd_gates_begin () =
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> order := "ti" :: !order) in
         let tj = E.initiate db (fun () -> order := "tj" :: !order) in
         ignore (E.form_dependency db Dt.BD ti tj);
         E.spawn db ~label:"begin-tj" (fun () ->
             (* Blocks until ti commits. *)
             Alcotest.(check bool) "tj begins" true (E.begin_ db tj);
             ignore (E.commit db tj));
         ignore (E.begin_ db ti);
         ignore (E.commit db ti);
         E.await_terminated db [ ti; tj ]));
  Alcotest.(check (list string)) "ti ran strictly first" [ "ti"; "tj" ] (List.rev !order)

let test_bd_master_abort_blocks_begin () =
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> failwith "no") in
         let tj = E.initiate db (fun () -> ()) in
         ignore (E.form_dependency db Dt.BD ti tj);
         ignore (E.begin_ db ti);
         ignore (E.wait db ti);
         Alcotest.(check bool) "tj cannot begin" false (E.begin_ db tj)))

(* Extension: EXC — at most one commits. *)
let test_exc_excludes_partner () =
  ignore
    (with_db (fun db ->
         let a = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
         let b = E.initiate db (fun () -> E.write db (oid 2) (vi 2)) in
         ignore (E.form_dependency db Dt.EXC a b);
         ignore (E.begin_ db a);
         ignore (E.begin_ db b);
         Alcotest.(check bool) "a commits" true (E.commit db a);
         Alcotest.(check bool) "b excluded" false (E.commit db b);
         Alcotest.(check bool) "b aborted" true (E.is_aborted db b)))

(* ------------------------------------------------------------------ *)
(* Semantic concurrency: commuting increments (section-5 extension)    *)

let test_increments_run_concurrently () =
  let db =
    with_db (fun db ->
        let mk delta =
          E.initiate db (fun () ->
              E.increment db (oid 1) delta;
              Sched.yield ();
              E.increment db (oid 1) delta)
        in
        let t1 = mk 1 and t2 = mk 10 in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        Alcotest.(check bool) "t1" true (E.commit db t1);
        Alcotest.(check bool) "t2" true (E.commit db t2);
        (* No blocking between the two incrementers. *)
        Alcotest.(check int) "no lock waits" 0 (List.assoc "lock_waits" (E.stats db)))
  in
  Alcotest.(check int) "all increments applied" 22 (geti db 1)

let test_increment_abort_is_logical () =
  (* t1 and t2 hold Increment locks concurrently; t1 aborts.  Unlike a
     permit-based cooperation (whose physical undo loses the other
     side's updates — test_abort_loses_cooperating_updates), the
     logical undo preserves t2's increment. *)
  let db =
    with_db (fun db ->
        let t1 = E.initiate db (fun () -> E.increment db (oid 1) 5) in
        let t2 = E.initiate db (fun () -> E.increment db (oid 1) 100) in
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.wait db t1);
        ignore (E.wait db t2);
        ignore (E.abort db t1);
        Alcotest.(check bool) "t2 commits" true (E.commit db t2))
  in
  Alcotest.(check int) "t2's concurrent increment survives t1's abort" 100 (geti db 1)

let test_increment_conflicts_with_read_write () =
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let inc =
           E.initiate db (fun () ->
               E.increment db (oid 1) 1;
               Sched.yield ();
               order := "inc-done" :: !order)
         in
         let reader =
           E.initiate db (fun () ->
               let v = E.read_exn db (oid 1) in
               order := Printf.sprintf "read-%d" (Value.to_int v) :: !order)
         in
         ignore (E.begin_ db inc);
         ignore (E.begin_ db reader);
         Alcotest.(check bool) "inc commits" true (E.commit db inc);
         Alcotest.(check bool) "reader commits" true (E.commit db reader)));
  (* The reader had to wait for the incrementing transaction. *)
  Alcotest.(check (list string)) "reader serialized after incrementer"
    [ "inc-done"; "read-1" ] (List.rev !order)

let test_increment_creates_object () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () -> E.increment db (oid 200) 7)))
  in
  Alcotest.(check int) "created at delta" 7
    (Value.to_int (Store.read_exn (E.store db) (oid 200)))

let test_increment_own_write_covered () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               E.write db (oid 1) (vi 10);
               (* Our W lock covers the increment. *)
               E.increment db (oid 1) 5)))
  in
  Alcotest.(check int) "write then increment" 15 (geti db 1)

(* ------------------------------------------------------------------ *)
(* Primitive interplay: delegate x permit x dependencies               *)

let test_delegate_then_ad_on_delegatee () =
  (* t1 writes and delegates to t2; t3 has an abort dependency on t2.
     Aborting t2 must undo the delegated update AND abort t3. *)
  let db =
    with_db (fun db ->
        let t1 = E.initiate db (fun () -> E.write db (oid 1) (vi 5)) in
        let t2 = E.initiate db (fun () -> ()) in
        let t3 = E.initiate db (fun () -> E.write db (oid 2) (vi 6)) in
        ignore (E.form_dependency db Dt.AD t2 t3);
        ignore (E.begin_ db t1);
        ignore (E.begin_ db t2);
        ignore (E.begin_ db t3);
        ignore (E.wait db t1);
        E.delegate db ~from_:t1 ~to_:t2;
        ignore (E.wait db t3);
        ignore (E.abort db t2);
        Alcotest.(check bool) "t3 dragged down" true (E.is_aborted db t3))
  in
  Alcotest.(check int) "delegated update undone" 0 (geti db 1);
  Alcotest.(check int) "dependent's update undone" 0 (geti db 2)

let test_gc_group_with_external_cd () =
  (* A GC pair where one member also has a CD on an external
     transaction: the whole group must wait for the external txn. *)
  let committed_order = ref [] in
  ignore
    (with_db (fun db ->
         let ext = E.initiate db (fun () -> Sched.yield ()) in
         let g1 = E.initiate db (fun () -> ()) in
         let g2 = E.initiate db (fun () -> ()) in
         ignore (E.form_dependency db Dt.GC g1 g2);
         ignore (E.form_dependency db Dt.CD ext g1);
         ignore (E.begin_ db ext);
         ignore (E.begin_ db g1);
         ignore (E.begin_ db g2);
         E.spawn db ~label:"commit-group" (fun () ->
             (* Committing g2 pulls g1 in, whose CD forces a wait. *)
             ignore (E.commit db g2);
             committed_order := "group" :: !committed_order);
         ignore (E.commit db ext);
         committed_order := "ext" :: !committed_order;
         E.await_terminated db [ ext; g1; g2 ];
         Alcotest.(check bool) "all committed" true
           (E.is_committed db g1 && E.is_committed db g2)));
  Alcotest.(check (list string)) "external first" [ "ext"; "group" ]
    (List.rev !committed_order)

let test_permit_expansion_includes_permitted_objects () =
  (* permit(t1, t3) must cover not only what t1 locked but also what t1
     was merely *permitted* on (the paper: "each object that t_i
     accessed or has permission to access"). *)
  ignore
    (with_db (fun db ->
         let t0 =
           E.initiate db (fun () ->
               E.write db (oid 1) (vi 1);
               Sched.yield ();
               Sched.yield ();
               Sched.yield ())
         in
         let t1 = E.initiate db (fun () -> Sched.yield ()) in
         let t3 = E.initiate db (fun () -> E.write db (oid 1) (vi 3)) in
         ignore (E.begin_ db t0);
         Sched.yield ();
         (* t0 permits t1 on ob1; t1 never touches it. *)
         E.permit db ~from_:t0 ~to_:t1 ~oids:[ oid 1 ] ~ops:Ops.all;
         ignore (E.begin_ db t1);
         (* Blanket permit from t1 to t3: expands over ob1 via t1's
            permission, and rule-3 transitivity lets t3 through. *)
         E.permit db ~from_:t1 ~to_:t3;
         ignore (E.begin_ db t3);
         Alcotest.(check bool) "t3 reaches ob1 transitively" true (E.commit db t3);
         ignore (E.commit db t1);
         ignore (E.commit db t0)))

let test_commit_of_never_begun_transaction_deadlocks () =
  (* commit blocks until execution completes; a transaction nobody
     begins never completes — the runtime must surface the stall as a
     deadlock, not hang. *)
  let store = Asset_storage.Heap_store.store () in
  let db = E.create store in
  let outcome =
    R.run db (fun () ->
        let t = E.initiate db (fun () -> ()) in
        ignore (E.commit db t))
  in
  Alcotest.(check bool) "deadlock surfaced" true outcome.R.deadlocked

let test_abort_while_parked_on_lock () =
  (* A transaction parked waiting for a lock is aborted (as if by
     deadlock resolution); its fiber must unwind cleanly and the lock
     queue must be purged. *)
  ignore
    (with_db (fun db ->
         let holder =
           E.initiate db (fun () ->
               E.write db (oid 1) (vi 1);
               Sched.yield ();
               Sched.yield ())
         in
         let waiter = E.initiate db (fun () -> E.write db (oid 1) (vi 2)) in
         ignore (E.begin_ db holder);
         Sched.yield ();
         ignore (E.begin_ db waiter);
         Sched.yield ();
         (* waiter is now parked on holder's lock. *)
         ignore (E.abort db waiter);
         Alcotest.(check bool) "holder commits" true (E.commit db holder);
         Alcotest.(check bool) "waiter aborted" true (E.is_aborted db waiter);
         Alcotest.(check int) "no pending residue" 0
           (List.length (Asset_lock.Lock_manager.pending_of (E.locks db) (oid 1)))))

(* ------------------------------------------------------------------ *)
(* Savepoints                                                          *)

let test_savepoint_partial_rollback () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               E.write db (oid 1) (vi 1);
               let sp = E.savepoint db in
               E.write db (oid 1) (vi 99);
               E.write db (oid 2) (vi 99);
               E.rollback_to db sp;
               E.write db (oid 3) (vi 3))))
  in
  Alcotest.(check int) "pre-savepoint write kept" 1 (geti db 1);
  Alcotest.(check int) "post-savepoint write undone" 0 (geti db 2);
  Alcotest.(check int) "work after rollback kept" 3 (geti db 3)

let test_savepoint_nested () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               E.write db (oid 1) (vi 1);
               let sp1 = E.savepoint db in
               E.write db (oid 2) (vi 2);
               let sp2 = E.savepoint db in
               E.write db (oid 3) (vi 3);
               (* Inner rollback first, then outer. *)
               E.rollback_to db sp2;
               E.rollback_to db sp1)))
  in
  Alcotest.(check (list int)) "only pre-sp1 state" [ 1; 0; 0 ]
    [ geti db 1; geti db 2; geti db 3 ]

let test_savepoint_then_abort () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               E.write db (oid 1) (vi 1);
               let sp = E.savepoint db in
               E.write db (oid 2) (vi 2);
               E.rollback_to db sp;
               failwith "abort the rest too")))
  in
  Alcotest.(check (list int)) "everything undone exactly once" [ 0; 0 ]
    [ geti db 1; geti db 2 ]

let test_savepoint_increment_logical () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               E.increment db (oid 1) 10;
               let sp = E.savepoint db in
               E.increment db (oid 1) 100;
               E.rollback_to db sp)))
  in
  Alcotest.(check int) "post-savepoint delta removed" 10 (geti db 1)

let test_savepoint_wrong_owner_rejected () =
  ignore
    (with_db (fun db ->
         let sp = ref None in
         let t1 = E.initiate db (fun () -> sp := Some (E.savepoint db)) in
         ignore (E.begin_ db t1);
         ignore (E.wait db t1);
         let t2 =
           E.initiate db (fun () ->
               match E.rollback_to db (Option.get !sp) with
               | exception Invalid_argument _ -> ()
               | () -> Alcotest.fail "expected owner check")
         in
         ignore (E.begin_ db t2);
         ignore (E.commit db t2);
         ignore (E.commit db t1)))

(* ------------------------------------------------------------------ *)
(* Misc                                                                *)

let test_stats_exposed () =
  ignore
    (with_db (fun db ->
         let t = E.initiate db (fun () -> E.write db (oid 1) (vi 1)) in
         ignore (E.begin_ db t);
         ignore (E.commit db t);
         let stats = E.stats db in
         Alcotest.(check int) "commits" 1 (List.assoc "commits" stats);
         Alcotest.(check int) "writes" 1 (List.assoc "writes" stats);
         Alcotest.(check bool) "lock stats merged" true (List.mem_assoc "lock.acquires" stats)))

(* The enqueue log shape: an Enqueue record carries its item, and
   only the first enqueue on each queue since the last checkpoint also
   carries the full queue it produced. *)
let test_enqueue_image_once_per_checkpoint () =
  let db =
    with_db (fun db ->
        let round () =
          ignore
            (Asset_models.Atomic.run db (fun () ->
                 E.enqueue db (oid 11) "a";
                 E.enqueue db (oid 12) "b";
                 E.enqueue db (oid 11) "c"))
        in
        round ();
        round ();
        ignore (E.checkpoint db);
        round ())
  in
  let shape =
    Asset_wal.Log.fold (E.log db) ~init:[] ~f:(fun acc _ r ->
        match r with
        | Asset_wal.Record.Enqueue { oid = o; image; _ } ->
            `Enq (Oid.to_int o, Option.map Value.to_queue image) :: acc
        | Asset_wal.Record.Begin_ckpt _ -> `Ckpt :: acc
        | _ -> acc)
    |> List.rev
  in
  let expected =
    [
      `Enq (11, Some [ "a" ]); `Enq (12, Some [ "b" ]); `Enq (11, None);
      `Enq (11, None); `Enq (12, None); `Enq (11, None);
      `Ckpt;
      `Enq (11, Some [ "a"; "c"; "a"; "c"; "a" ]); `Enq (12, Some [ "b"; "b"; "b" ]); `Enq (11, None);
    ]
  in
  Alcotest.(check bool) "first enqueue per queue per checkpoint carries the image" true
    (shape = expected);
  Alcotest.(check (list string))
    "queue" [ "a"; "c"; "a"; "c"; "a"; "c" ]
    (Value.to_queue (Store.read_exn (E.store db) (oid 11)))

let () =
  Alcotest.run "asset_engine"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "initiate" `Quick test_initiate_returns_tid_and_status;
          Alcotest.test_case "resource limit" `Quick test_initiate_resource_limit;
          Alcotest.test_case "begin only from initiated" `Quick test_begin_only_from_initiated;
          Alcotest.test_case "self and parent" `Quick test_self_and_parent;
          Alcotest.test_case "self outside txn" `Quick test_self_outside_transaction_is_null;
          Alcotest.test_case "parent recorded at initiate" `Quick test_parent_recorded_at_initiate;
        ] );
      ( "data",
        [
          Alcotest.test_case "write/commit persists" `Quick test_write_then_commit_persists;
          Alcotest.test_case "abort restores" `Quick test_abort_restores_before_images;
          Alcotest.test_case "abort deletes created" `Quick test_abort_deletes_created_objects;
          Alcotest.test_case "body exception aborts" `Quick test_body_exception_aborts;
          Alcotest.test_case "read outside txn" `Quick test_read_outside_transaction_rejected;
          Alcotest.test_case "abort unwinds body" `Quick test_operations_after_abort_unwind;
        ] );
      ( "locking",
        [
          Alcotest.test_case "reader blocks on writer" `Quick test_reader_blocks_until_writer_commits;
          Alcotest.test_case "readers share" `Quick test_two_readers_share;
          Alcotest.test_case "deadlock victim" `Quick test_deadlock_victim_aborted;
          Alcotest.test_case "deadlock detection disabled" `Quick
            test_deadlock_detection_disabled_raises;
          Alcotest.test_case "deadlock reasons text" `Quick test_deadlock_reasons_text;
          Alcotest.test_case "find_cycle vs reference on bank" `Quick
            test_find_cycle_deadlock_workload;
          Alcotest.test_case "updates atomic between choice points" `Quick test_update_atomicity;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "wait semantics" `Quick test_wait_semantics;
          Alcotest.test_case "commit blocks until completion" `Quick
            test_commit_blocks_until_completion;
          Alcotest.test_case "commit idempotent" `Quick test_commit_idempotent;
          Alcotest.test_case "abort semantics" `Quick test_abort_semantics;
          Alcotest.test_case "abort initiated txn" `Quick test_abort_of_initiated_transaction;
        ] );
      ( "delegate",
        [
          Alcotest.test_case "survives delegator abort" `Quick test_delegate_then_commit_keeps_updates;
          Alcotest.test_case "delegatee abort undoes" `Quick
            test_delegatee_abort_undoes_delegated_updates;
          Alcotest.test_case "partial delegation" `Quick test_partial_delegation;
          Alcotest.test_case "delegate to initiated" `Quick test_delegate_to_initiated_transaction;
          Alcotest.test_case "delegate withdraws pending requests" `Quick
            test_delegate_withdraws_pending_requests;
          Alcotest.test_case "delegate to terminated rejected" `Quick
            test_delegate_to_terminated_rejected;
        ] );
      ( "permit",
        [
          Alcotest.test_case "enables conflicting access" `Quick
            test_permit_enables_conflicting_access;
          Alcotest.test_case "blanket permit form" `Quick test_permit_all_objects_form;
          Alcotest.test_case "abort loses cooperating updates" `Quick
            test_abort_loses_cooperating_updates;
        ] );
      ( "dependencies",
        [
          Alcotest.test_case "CD orders commits" `Quick test_cd_orders_commits;
          Alcotest.test_case "CD allows commit after master abort" `Quick
            test_cd_allows_commit_after_master_abort;
          Alcotest.test_case "AD abort propagates" `Quick test_ad_abort_propagates;
          Alcotest.test_case "AD dependent waits then aborts" `Quick
            test_ad_dependent_waits_then_aborts;
          Alcotest.test_case "AD commit after master commits" `Quick
            test_ad_commit_after_master_commits;
          Alcotest.test_case "cycle rejected" `Quick test_form_dependency_rejects_cycle;
          Alcotest.test_case "GC group commits together" `Quick test_gc_group_commits_together;
          Alcotest.test_case "GC member abort dooms group" `Quick test_gc_member_abort_dooms_group;
          Alcotest.test_case "GC single log record" `Quick test_gc_single_log_record;
          Alcotest.test_case "BD gates begin" `Quick test_bd_gates_begin;
          Alcotest.test_case "BD master abort blocks begin" `Quick test_bd_master_abort_blocks_begin;
          Alcotest.test_case "EXC excludes partner" `Quick test_exc_excludes_partner;
        ] );
      ( "increment",
        [
          Alcotest.test_case "concurrent increments" `Quick test_increments_run_concurrently;
          Alcotest.test_case "logical undo" `Quick test_increment_abort_is_logical;
          Alcotest.test_case "enqueue image once per checkpoint" `Quick
            test_enqueue_image_once_per_checkpoint;
          Alcotest.test_case "conflicts with read/write" `Quick
            test_increment_conflicts_with_read_write;
          Alcotest.test_case "creates object" `Quick test_increment_creates_object;
          Alcotest.test_case "own write covers" `Quick test_increment_own_write_covered;
        ] );
      ( "interplay",
        [
          Alcotest.test_case "delegate then AD on delegatee" `Quick
            test_delegate_then_ad_on_delegatee;
          Alcotest.test_case "GC group with external CD" `Quick test_gc_group_with_external_cd;
          Alcotest.test_case "permit expansion covers permissions" `Quick
            test_permit_expansion_includes_permitted_objects;
          Alcotest.test_case "commit of never-begun txn deadlocks" `Quick
            test_commit_of_never_begun_transaction_deadlocks;
          Alcotest.test_case "abort while parked on lock" `Quick test_abort_while_parked_on_lock;
        ] );
      ( "savepoint",
        [
          Alcotest.test_case "partial rollback" `Quick test_savepoint_partial_rollback;
          Alcotest.test_case "nested" `Quick test_savepoint_nested;
          Alcotest.test_case "savepoint then abort" `Quick test_savepoint_then_abort;
          Alcotest.test_case "increment logical" `Quick test_savepoint_increment_logical;
          Alcotest.test_case "wrong owner rejected" `Quick test_savepoint_wrong_owner_rejected;
        ] );
      ( "misc",
        [
          Alcotest.test_case "stats" `Quick test_stats_exposed;
        ] );
      ( "group commit",
        [
          Alcotest.test_case "coalesces forces" `Quick test_group_commit_coalesces_forces;
          Alcotest.test_case "serial committer forces each" `Quick
            test_group_commit_serial_forces_each;
          Alcotest.test_case "lone committer forced at quiescence" `Quick
            test_lone_committer_forced_at_quiescence;
        ] );
    ]
