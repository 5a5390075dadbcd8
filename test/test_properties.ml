(* System-level properties checked over randomized workloads and
   schedules: serializability of committed work under strict 2PL,
   conservation invariants, determinism of seeded schedules, and
   workload-harness consistency. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap = Asset_storage.Heap_store
module Workload = Asset_workload.Workload
module Bank = Asset_workload.Bank
module Lm = Asset_lock.Lock_manager

let oid = Oid.of_int
let geti db o = Value.to_int (Store.read_exn (E.store db) (oid o))

(* ------------------------------------------------------------------ *)
(* Serializability: counter increments                                 *)

(* Each transaction increments a set of counters (read-modify-write
   with yields).  Under any interleaving, the final value of each
   counter must equal the number of committed increments that touched
   it — the outcome of *some* serial order. *)
let run_counter_workload ~policy ~n_objects ~txns =
  let store = Heap.store () in
  Heap.populate store ~n:n_objects ~value:(fun _ -> Value.of_int 0);
  let db = E.create store in
  let committed_incrs = Array.make (n_objects + 1) 0 in
  let result =
    R.run ~policy db (fun () ->
        let bodies =
          List.map
            (fun objs () ->
              List.iter
                (fun o ->
                  E.modify db (oid o) (fun v -> Value.incr_int (Option.get v) 1);
                  Sched.yield ())
                objs)
            txns
        in
        let tids = List.map (fun b -> E.initiate db b) bodies in
        List.iter (fun t -> ignore (E.begin_ db t)) tids;
        List.iter (fun t -> E.spawn db ~label:"c" (fun () -> ignore (E.commit db t))) tids;
        E.await_terminated db tids;
        List.iteri
          (fun i t ->
            if E.is_committed db t then
              List.iter (fun o -> committed_incrs.(o) <- committed_incrs.(o) + 1) (List.nth txns i))
          tids)
  in
  match result.R.result with
  | Ok () -> Some (db, committed_incrs)
  | Error _ -> None

let prop_counter_serializability policy_name policy =
  QCheck2.Test.make
    ~name:(Printf.sprintf "committed increments all appear (%s)" policy_name)
    ~count:60
    QCheck2.Gen.(
      list_size (int_range 1 12) (list_size (int_range 1 4) (int_range 1 5)))
    (fun txns ->
      match run_counter_workload ~policy ~n_objects:5 ~txns with
      | None -> false
      | Some (db, committed_incrs) ->
          List.for_all (fun o -> geti db o = committed_incrs.(o)) [ 1; 2; 3; 4; 5 ])

(* ------------------------------------------------------------------ *)
(* Bank conservation                                                   *)

let prop_bank_total_conserved =
  QCheck2.Test.make ~name:"bank total conserved under contention" ~count:25
    QCheck2.Gen.(pair (int_range 2 16) (int_range 1 60))
    (fun (accounts, n_txns) ->
      let store = Heap.store () in
      Bank.setup store ~accounts ~balance:1_000;
      let db = E.create store in
      R.run_exn db (fun () -> ignore (Bank.run_transfers db ~accounts ~n_txns));
      Bank.total db ~accounts = accounts * 1_000)

let prop_bank_conserved_random_schedules =
  QCheck2.Test.make ~name:"bank total conserved under random schedules" ~count:20
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let store = Heap.store () in
      Bank.setup store ~accounts:8 ~balance:500;
      let db = E.create store in
      R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
          ignore (Bank.run_transfers db ~accounts:8 ~n_txns:30));
      Bank.total db ~accounts:8 = 8 * 500)

(* ------------------------------------------------------------------ *)
(* Determinism                                                         *)

let snapshot_of_run policy =
  let store = Heap.store () in
  Bank.setup store ~accounts:6 ~balance:100;
  let db = E.create store in
  R.run_exn ~policy db (fun () -> ignore (Bank.run_transfers db ~accounts:6 ~n_txns:25));
  List.map (fun (o, v) -> (Oid.to_int o, Value.to_int v)) (Store.dump (E.store db))

let test_fifo_runs_identical () =
  Alcotest.(check bool) "two FIFO runs agree" true (snapshot_of_run Sched.Fifo = snapshot_of_run Sched.Fifo)

let test_seeded_runs_identical () =
  Alcotest.(check bool) "same seed agrees" true
    (snapshot_of_run (Sched.Random_seeded 5) = snapshot_of_run (Sched.Random_seeded 5))

let test_different_seeds_explore () =
  let distinct =
    List.sort_uniq compare (List.map (fun s -> snapshot_of_run (Sched.Random_seeded s)) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  Alcotest.(check bool) "schedules explore different outcomes" true (List.length distinct > 1)

(* ------------------------------------------------------------------ *)
(* Model invariants under random schedules                             *)

(* Each extended model's core invariant must hold whatever the
   interleaving; shake each with several scheduler seeds. *)
let seeds = [ 11; 22; 33; 44; 55 ]

let oid = Oid.of_int
let vi = Value.of_int

let test_nested_invariant_random_schedules () =
  List.iter
    (fun seed ->
      let store = Heap.store () in
      Heap.populate store ~n:8 ~value:(fun _ -> vi 0);
      let db = E.create store in
      R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
          let r =
            Asset_models.Nested.root db (fun () ->
                Asset_models.Nested.sub_exn db (fun () -> E.write db (oid 1) (vi 1));
                Asset_models.Nested.sub_exn db (fun () ->
                    E.write db (oid 2) (vi 2);
                    failwith "child dies"))
          in
          assert (r = `Aborted));
      (* Whole-trip atomicity under every schedule. *)
      Alcotest.(check int) "nothing survives" 0
        (Value.to_int (Store.read_exn store (oid 1)) + Value.to_int (Store.read_exn store (oid 2))))
    seeds

let test_distributed_invariant_random_schedules () =
  List.iter
    (fun seed ->
      let store = Heap.store () in
      Heap.populate store ~n:8 ~value:(fun _ -> vi 0);
      let db = E.create store in
      R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
          ignore
            (Asset_models.Distributed.run db
               [
                 (fun () -> E.write db (oid 1) (vi 1));
                 (fun () -> E.write db (oid 2) (vi 2));
                 (fun () -> failwith "component dies");
               ]));
      Alcotest.(check int) "group atomicity" 0
        (Value.to_int (Store.read_exn store (oid 1)) + Value.to_int (Store.read_exn store (oid 2))))
    seeds

let test_increment_invariant_random_schedules () =
  List.iter
    (fun seed ->
      let store = Heap.store () in
      Heap.populate store ~n:2 ~value:(fun _ -> vi 0);
      let db = E.create store in
      R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
          let bodies =
            List.init 6 (fun i () ->
                E.increment db (oid 1) 1;
                Sched.yield ();
                if i mod 3 = 2 then failwith "die";
                E.increment db (oid 1) 1)
          in
          let c, _ = Workload.run_bodies db bodies in
          (* Final value = 2 per committed txn exactly, under any
             schedule, thanks to logical undo. *)
          Alcotest.(check int) "commuting increments exact" (2 * c)
            (Value.to_int (Store.read_exn store (oid 1)))))
    seeds

let test_saga_invariant_random_schedules () =
  List.iter
    (fun seed ->
      let store = Heap.store () in
      Heap.populate store ~n:8 ~value:(fun _ -> vi 0);
      let db = E.create store in
      R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
          let step n =
            Asset_models.Saga.step ~label:(string_of_int n)
              ~compensate:(fun () -> E.write db (oid n) (vi 0))
              (fun () ->
                if n = 3 then failwith "step dies";
                E.write db (oid n) (vi n))
          in
          match Asset_models.Saga.run db [ step 1; step 2; step 3 ] with
          | Asset_models.Saga.Rolled_back { failed_step = 2; compensated = 2 } -> ()
          | _ -> Alcotest.fail "expected rollback at step 2");
      Alcotest.(check int) "compensated clean" 0
        (Value.to_int (Store.read_exn store (oid 1)) + Value.to_int (Store.read_exn store (oid 2))))
    seeds

(* ------------------------------------------------------------------ *)
(* Semantic concurrency: snapshot reads, escrow bounds, version GC     *)

module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle
module Tid = Asset_util.Id.Tid

(* Read-only snapshot transactions run against deadlock-prone RMW
   writers across seeded random schedules.  Every reader must commit
   (never a victim, never a lock timeout), must never appear in a lock
   event or a locked data operation, and the recorded history must
   satisfy the snapshot-visibility axiom: each snapshot read returned
   exactly the newest version committed before the reader's begin. *)
let prop_readonly_never_blocks_or_aborts =
  QCheck2.Test.make ~name:"read-only snapshot txns: zero locks, zero aborts" ~count:200
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let accounts = 6 in
      let store = Heap.store () in
      Bank.setup store ~accounts ~balance:1_000;
      let db = E.create store in
      let readers = ref [] in
      let (), entries =
        Trace.with_memory (fun () ->
            R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
                let rng = Asset_util.Rng.create seed in
                let writer_bodies =
                  List.init 8 (fun _ -> Bank.random_transfer db ~accounts ~rng)
                in
                let wtids = List.map (fun b -> E.initiate db b) writer_bodies in
                let rtids =
                  List.init 4 (fun _ ->
                      E.initiate ~read_only:true db (fun () ->
                          for a = 1 to accounts do
                            ignore (E.read db (Bank.account a));
                            Sched.yield ()
                          done))
                in
                readers := rtids;
                let tids = wtids @ rtids in
                ignore (E.begin_many db tids);
                List.iter
                  (fun t -> E.spawn db ~label:"c" (fun () -> ignore (E.commit db t)))
                  tids;
                E.await_terminated db tids))
      in
      let is_reader t = List.exists (Tid.equal t) !readers in
      List.for_all (fun t -> E.is_committed db t) !readers
      && List.for_all
           (fun { Trace.ev; _ } ->
             match ev with
             | Trace.Lock { tid; _ } | Trace.Op { tid; _ } -> not (is_reader tid)
             | _ -> true)
           entries
      && Oracle.check_snapshot_visibility entries = [])

(* Concurrent escrow deltas against a bounded counter: whatever commits
   or aborts, the committed value can never escape [lo, hi] — the
   worst-case admission test guarantees it for every completion
   order. *)
let prop_escrow_bounds_respected =
  QCheck2.Test.make ~name:"escrow committed value never escapes bounds" ~count:100
    QCheck2.Gen.(pair (int_range 0 1_000_000) (list_size (int_range 1 12) (int_range (-5) 5)))
    (fun (seed, deltas) ->
      let store = Heap.store () in
      Heap.populate store ~n:1 ~value:(fun _ -> Value.of_int 5);
      let db = E.create store in
      let lo = 0 and hi = 10 in
      R.run_exn ~policy:(Sched.Random_seeded seed) db (fun () ->
          let bodies =
            List.map
              (fun d () ->
                E.escrow db (oid 1) d ~lo ~hi;
                Sched.yield ())
              deltas
          in
          ignore (Workload.run_bodies db bodies));
      let v = geti db 1 in
      v >= lo && v <= hi)

(* Version GC: chains grow while a snapshot pins old versions and
   collapse back to the committed head once the oldest snapshot
   closes. *)
let test_version_gc_bounded () =
  let store = Heap.store () in
  Heap.populate store ~n:1 ~value:(fun _ -> vi 0);
  let db = E.create store in
  let with_reader = ref 0 in
  R.run_exn db (fun () ->
      let release = ref false in
      let reader =
        E.initiate ~read_only:true db (fun () ->
            ignore (E.read db (oid 1));
            while not !release do
              Sched.yield ()
            done)
      in
      ignore (E.begin_ db reader);
      for i = 1 to 50 do
        let t = E.initiate db (fun () -> E.write db (oid 1) (vi i)) in
        ignore (E.begin_ db t);
        ignore (E.commit db t)
      done;
      with_reader := E.mvcc_max_chain db;
      release := true;
      ignore (E.commit db reader));
  Alcotest.(check bool) "chain held back while snapshot open" true (!with_reader > 10);
  Alcotest.(check bool) "chain collapses after snapshot closes" true (E.mvcc_max_chain db <= 2);
  Alcotest.(check int) "latest survives GC" 50 (geti db 1)

(* Enqueue undo is logical: an aborted producer's item disappears
   without clobbering concurrently enqueued items. *)
let test_enqueue_logical_undo () =
  let store = Heap.store () in
  let db = E.create store in
  R.run_exn db (fun () ->
      let t1 =
        E.initiate db (fun () ->
            E.enqueue db (oid 1) "a";
            Sched.yield ();
            E.enqueue db (oid 1) "c")
      in
      let t2 =
        E.initiate db (fun () ->
            E.enqueue db (oid 1) "b";
            Sched.yield ();
            ignore (E.abort db (E.self db)))
      in
      ignore (E.begin_many db [ t1; t2 ]);
      E.spawn db ~label:"c1" (fun () -> ignore (E.commit db t1));
      E.spawn db ~label:"c2" (fun () -> ignore (E.commit db t2));
      E.await_terminated db [ t1; t2 ]);
  let q = Value.to_queue (Store.read_exn (E.store db) (oid 1)) in
  Alcotest.(check (list string)) "survivor's items only" [ "a"; "c" ] (List.sort compare q)

(* The in-place queue codec against its list definition.  Items come
   from a three-letter alphabet and may be empty, so random queues
   hold duplicates and the removed occurrence matters. *)
let gen_item = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'c') (int_range 0 2))
let gen_queue = QCheck2.Gen.(list_size (int_range 0 12) gen_item)

let prop_queue_push_appends =
  QCheck2.Test.make ~name:"queue_push appends one item" ~count:500
    QCheck2.Gen.(pair gen_queue gen_item)
    (fun (items, x) -> Value.to_queue (Value.queue_push (Value.of_queue items) x) = items @ [ x ])

let prop_queue_remove_last_matches_list =
  let rec drop_last x = function
    | [] -> []
    | y :: rest -> if String.equal x y && not (List.mem x rest) then rest else y :: drop_last x rest
  in
  QCheck2.Test.make ~name:"queue_remove_last drops the last occurrence" ~count:500
    QCheck2.Gen.(pair gen_queue gen_item)
    (fun (items, x) ->
      Value.to_queue (Value.queue_remove_last (Value.of_queue items) x) = drop_last x items)

(* ------------------------------------------------------------------ *)
(* Workload harness                                                    *)

let test_workload_counts_consistent () =
  let m = Workload.run { Workload.default_spec with Workload.n_txns = 40 } in
  Alcotest.(check int) "committed+aborted = txns" 40 Workload.(m.committed + m.aborted)

let test_workload_no_contention_no_aborts () =
  (* Disjoint keyspaces: with one op per transaction there is no
     blocking at all. *)
  let m =
    Workload.run
      {
        Workload.default_spec with
        Workload.n_txns = 20;
        ops_per_txn = 1;
        n_objects = 4096;
        theta = 0.0;
      }
  in
  Alcotest.(check int) "all committed" 20 m.Workload.committed

let test_workload_zipf_contention_increases_waits () =
  let uniform =
    Workload.run { Workload.default_spec with Workload.n_txns = 64; theta = 0.0; seed = 3 }
  in
  let skewed =
    Workload.run { Workload.default_spec with Workload.n_txns = 64; theta = 1.2; seed = 3 }
  in
  Alcotest.(check bool) "skew costs waits" true
    (skewed.Workload.lock_waits >= uniform.Workload.lock_waits)

let test_workload_rmw_mode_runs () =
  let m =
    Workload.run
      { Workload.default_spec with Workload.n_txns = 24; read_modify_write = true; seed = 11 }
  in
  Alcotest.(check int) "counts consistent" 24 Workload.(m.committed + m.aborted)

(* A committed RMW workload conserves the "sum equals committed
   increments" invariant even with deadlock victims. *)
let test_rmw_sum_matches_commits () =
  let spec =
    {
      Workload.default_spec with
      Workload.n_txns = 30;
      write_ratio = 1.0;
      read_modify_write = true;
      n_objects = 6;
      theta = 0.5;
      seed = 17;
    }
  in
  let store = Heap.store () in
  Heap.populate store ~n:spec.Workload.n_objects ~value:(fun _ -> Value.of_int 0);
  let db = E.create store in
  let txns = Workload.generate spec in
  let tids = ref [] in
  R.run_exn db (fun () ->
      let bodies = List.map (fun ops -> Workload.body_of_ops db ~yield:true ~rmw:true ops) txns in
      let ts = List.map (fun b -> E.initiate db b) bodies in
      tids := ts;
      List.iter (fun t -> ignore (E.begin_ db t)) ts;
      List.iter (fun t -> E.spawn db ~label:"c" (fun () -> ignore (E.commit db t))) ts;
      E.await_terminated db ts);
  let expected =
    List.fold_left2
      (fun acc t ops ->
        if E.is_committed db t then
          acc + List.length (List.filter (function Workload.Write _ -> true | _ -> false) ops)
        else acc)
      0 !tids txns
  in
  let total = ref 0 in
  for o = 1 to 6 do
    total := !total + geti db o
  done;
  Alcotest.(check int) "sum of counters = committed increments" expected !total

(* ------------------------------------------------------------------ *)
(* Engine undo and recovery undo agree                                 *)

(* A loser's data operation.  Integer slots 0-2 are oids 1, 2 and 5
   (5 starts absent); queue slots 0-1 are oids 3 and 4 (4 starts
   absent).  [Shared n] touches oid 300, which a helper transaction
   creates, permits to the loser and then aborts: an increment by [n]
   when the helper created an integer, an enqueue when it created a
   queue. *)
type undo_op = Write of int * int | Incr of int * int | Enq of int * string | Shared of int

type loser_history = {
  helper : [ `None | `Int | `Queue ];
  pre : undo_op list;
  rolled_back : undo_op list option; (* done after a savepoint, then rolled back *)
  post : undo_op list;
}

let int_oids = [| 1; 2; 5 |]
let queue_oids = [| 3; 4 |]
let shared = oid 300

let pp_undo_op = function
  | Write (i, v) -> Printf.sprintf "W%d=%d" int_oids.(i) v
  | Incr (i, d) -> Printf.sprintf "I%d%+d" int_oids.(i) d
  | Enq (i, x) -> Printf.sprintf "Q%d<%S" queue_oids.(i) x
  | Shared n -> Printf.sprintf "S300:%d" n

let pp_loser h =
  let ops l = "[" ^ String.concat " " (List.map pp_undo_op l) ^ "]" in
  Printf.sprintf "helper=%s pre=%s rolled_back=%s post=%s"
    (match h.helper with `None -> "none" | `Int -> "int" | `Queue -> "queue")
    (ops h.pre)
    (match h.rolled_back with None -> "-" | Some l -> ops l)
    (ops h.post)

let apply_undo_op db h = function
  | Write (i, v) -> E.write db (oid int_oids.(i)) (Value.of_int v)
  | Incr (i, d) -> E.increment db (oid int_oids.(i)) d
  | Enq (i, x) -> E.enqueue db (oid queue_oids.(i)) x
  | Shared n -> (
      match h.helper with
      | `Queue -> E.enqueue db shared (string_of_int n)
      | `Int | `None -> E.increment db shared n)

let undo_initial_store () =
  let s = Heap.store () in
  Store.write s (oid 1) (Value.of_int 0);
  Store.write s (oid 2) (Value.of_int 0);
  Store.write s (oid 3) (Value.of_queue []);
  s

let sorted_dump s =
  Store.dump s |> List.map (fun (o, v) -> (Oid.to_int o, Value.to_string v)) |> List.sort compare

(* Run the loser history, then abort the loser.  Returns the engine's
   store after the abort, and the store recovery makes from the log cut
   just before the abort's first CLR — there the loser is unresolved,
   while any rollback CLRs and the helper's abort are in the cut.  The
   two undos must agree. *)
let undo_engine_and_recovery h =
  let db = E.create (undo_initial_store ()) in
  (* The initial objects reach the log as a checkpoint's image. *)
  ignore (E.checkpoint db);
  let cut = ref 0 in
  R.run_exn db (fun () ->
      let loser =
        E.initiate db (fun () ->
            List.iter (apply_undo_op db h) h.pre;
            Option.iter
              (fun ops ->
                let sp = E.savepoint db in
                List.iter (apply_undo_op db h) ops;
                E.rollback_to db sp)
              h.rolled_back;
            List.iter (apply_undo_op db h) h.post)
      in
      let helper =
        match h.helper with
        | `None -> None
        | (`Int | `Queue) as kind ->
            let v = if kind = `Int then Value.of_int 9 else Value.of_queue [ "h" ] in
            let t =
              E.initiate db (fun () ->
                  E.write db shared v;
                  E.permit db ~to_:loser ~oids:[ shared ] ~from_:(E.self db))
            in
            ignore (E.begin_ db t);
            ignore (E.wait db t);
            Some t
      in
      ignore (E.begin_ db loser);
      ignore (E.wait db loser);
      Option.iter (fun t -> ignore (E.abort db t)) helper;
      cut := Asset_wal.Log.length (E.log db);
      ignore (E.abort db loser));
  let prefix = Asset_wal.Log.in_memory () in
  Asset_wal.Log.iter (E.log db) (fun lsn r ->
      if lsn < !cut then ignore (Asset_wal.Log.append prefix r));
  let recovered = undo_initial_store () in
  ignore (Asset_wal.Recovery.recover prefix recovered);
  (sorted_dump (E.store db), sorted_dump recovered)

let gen_loser_history =
  let open QCheck2.Gen in
  let* helper = oneofl [ `None; `Int; `Queue ] in
  let op =
    let own =
      [
        map2 (fun i v -> Write (i, v)) (int_range 0 2) (int_range (-3) 9);
        map2 (fun i d -> Incr (i, d)) (int_range 0 2) (int_range (-5) 5);
        map2 (fun i x -> Enq (i, x)) (int_range 0 1) gen_item;
      ]
    in
    oneof (if helper = `None then own else map (fun n -> Shared n) (int_range 1 9) :: own)
  in
  let ops = list_size (int_range 0 4) op in
  let+ pre = ops and+ rolled_back = option ops and+ post = ops in
  { helper; pre; rolled_back; post }

let prop_engine_undo_matches_recovery =
  QCheck2.Test.make ~name:"engine undo = recovery undo over the cut log" ~count:300
    ~print:pp_loser gen_loser_history (fun h ->
      let live, recovered = undo_engine_and_recovery h in
      live = recovered)

(* The phantom object: the helper creates oid 300, the loser updates it
   under the helper's permit, the helper's abort deletes it.  The
   loser's logical undo must then leave it absent, as recovery does. *)
let test_undo_phantom_object () =
  List.iter
    (fun h ->
      let live, recovered = undo_engine_and_recovery h in
      Alcotest.(check (list (pair int string))) (pp_loser h) recovered live;
      Alcotest.(check bool) "oid 300 absent" false (List.mem_assoc 300 live))
    [
      { helper = `Int; pre = [ Shared 7 ]; rolled_back = None; post = [] };
      { helper = `Queue; pre = [ Shared 7 ]; rolled_back = None; post = [] };
      { helper = `Int; pre = [ Incr (0, 2) ]; rolled_back = Some [ Shared 3 ]; post = [ Shared 4 ] };
    ]

(* ------------------------------------------------------------------ *)
(* The lock table empties                                              *)

(* A random engine history over integer objects 1..3 and queue 4:
   writes, increments, read-modify-writes, enqueues, directed and open
   permits, delegation, savepoint rollback and explicit aborts, run
   under a seeded random schedule, so some runs also deadlock and lose
   a victim.  Once every transaction has terminated, the lock table
   must hold no object descriptor and no lock, request or permit. *)
type lock_op =
  | L_write of int
  | L_incr of int
  | L_rmw of int
  | L_enq
  | L_permit of int option * int (* grantee (None = any), object *)
  | L_delegate of int * int option (* target, object (None = all) *)
  | L_rollback of int list (* increments done after a savepoint, then rolled back *)
  | L_abort

type lock_history = { seed : int; txns : lock_op list list }

let pp_lock_op = function
  | L_write o -> Printf.sprintf "W%d" o
  | L_incr o -> Printf.sprintf "I%d" o
  | L_rmw o -> Printf.sprintf "M%d" o
  | L_enq -> "Q4"
  | L_permit (g, o) ->
      Printf.sprintf "P%s:%d" (match g with Some g -> "t" ^ string_of_int g | None -> "*") o
  | L_delegate (g, o) ->
      Printf.sprintf "D%d:%s" g (match o with Some o -> string_of_int o | None -> "*")
  | L_rollback os -> "R[" ^ String.concat "," (List.map string_of_int os) ^ "]"
  | L_abort -> "A"

let pp_lock_history h =
  Printf.sprintf "seed=%d %s" h.seed
    (String.concat " | " (List.map (fun ops -> String.concat " " (List.map pp_lock_op ops)) h.txns))

let gen_lock_history =
  let open QCheck2.Gen in
  let* n = int_range 2 5 in
  let obj = int_range 1 3 in
  let op =
    frequency
      [
        (3, map (fun o -> L_write o) obj);
        (3, map (fun o -> L_incr o) obj);
        (4, map (fun o -> L_rmw o) obj);
        (1, pure L_enq);
        (2, map2 (fun g o -> L_permit (g, o)) (option (int_range 0 (n - 1))) (int_range 1 4));
        (2, map2 (fun g o -> L_delegate (g, o)) (int_range 0 (n - 1)) (option obj));
        (1, map (fun os -> L_rollback os) (list_size (int_range 1 3) obj));
        (1, pure L_abort);
      ]
  in
  let+ seed = int_range 0 100_000 and+ txns = list_repeat n (list_size (int_range 1 6) op) in
  { seed; txns }

(* Features the generated histories exercised, summed over all runs. *)
let lock_history_seen = Hashtbl.create 8
let seen key = Option.value ~default:0 (Hashtbl.find_opt lock_history_seen key)
let saw key n = Hashtbl.replace lock_history_seen key (seen key + n)

let run_lock_history ?(probe = fun _ _ -> ()) h =
  let store = Heap.store () in
  Heap.populate store ~n:3 ~value:(fun _ -> Value.of_int 0);
  Store.write store (oid 4) (Value.of_queue []);
  let db = E.create store in
  let n = List.length h.txns in
  let tids = Array.make n Asset_util.Id.Tid.null in
  let apply i = function
    | L_write o -> E.write db (oid o) (Value.of_int i)
    | L_incr o -> E.increment db (oid o) 1
    | L_rmw o -> E.modify db (oid o) (fun v -> Value.incr_int (Option.get v) 1)
    | L_enq -> E.enqueue db (oid 4) (string_of_int i)
    | L_permit (g, o) ->
        E.permit db ?to_:(Option.map (fun g -> tids.(g)) g) ~oids:[ oid o ] ~from_:(E.self db)
    | L_delegate (g, o) -> (
        if g <> i then
          try
            E.delegate db ?oids:(Option.map (fun o -> [ oid o ]) o) ~from_:(E.self db) ~to_:tids.(g);
            saw "delegations" 1
          with Invalid_argument _ -> () (* the target has terminated *))
    | L_rollback os ->
        let sp = E.savepoint db in
        List.iter (fun o -> E.increment db (oid o) 1) os;
        E.rollback_to db sp;
        saw "rollbacks" 1
    | L_abort -> ignore (E.abort db (E.self db))
  in
  let outcome =
    R.run ~policy:(Sched.Random_seeded h.seed) db (fun () ->
        List.iteri
          (fun i ops ->
            tids.(i) <-
              E.initiate db (fun () ->
                  List.iter
                    (fun op ->
                      apply i op;
                      probe db tids;
                      Sched.yield ())
                    ops))
          h.txns;
        Array.iter (fun t -> ignore (E.begin_ db t)) tids;
        Array.iter (fun t -> E.spawn db ~label:"committer" (fun () -> ignore (E.commit db t))) tids;
        Sched.wait_until ~reason:"await termination" (fun () ->
            Array.for_all (fun t -> Asset_core.Status.terminated (E.status db t)) tids))
  in
  let stat k = List.assoc k (E.stats db) in
  List.iter
    (fun k -> saw k (stat k))
    [ "deadlock_victims"; "lock.suspensions"; "lock.permit_grants"; "aborts" ];
  let locks = E.locks db in
  let empty o =
    Lm.granted_of locks (oid o) = []
    && Lm.pending_of locks (oid o) = []
    && Lm.permits_of locks (oid o) = []
  in
  probe db tids;
  outcome.R.result = Ok ()
  && Array.for_all (fun t -> Asset_core.Status.terminated (E.status db t)) tids
  && stat "lock.ods" = 0
  && List.for_all empty [ 1; 2; 3; 4 ]

let prop_lock_table_empties =
  QCheck2.Test.make ~name:"lock table empties once every transaction terminates" ~count:250
    ~print:pp_lock_history gen_lock_history run_lock_history

(* Run the property, then check that its histories really exercised
   what it claims to cover. *)
let test_lock_table_empties () =
  Hashtbl.reset lock_history_seen;
  QCheck2.Test.check_exn prop_lock_table_empties;
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " exercised") true (seen k > 0))
    [
      "deadlock_victims"; "lock.suspensions"; "lock.permit_grants"; "aborts"; "delegations"; "rollbacks";
    ]

(* ------------------------------------------------------------------ *)
(* The active-transaction set                                          *)

(* The engine keeps its active transactions as a set updated on status
   transitions.  At every step of a random history, and once all have
   terminated, [active_transactions] and the ATT a checkpoint captures
   must name exactly the transactions a fold over every TD finds
   active. *)
let active_set_mismatches = ref 0

let check_active_set db tids =
  let sorted l = List.sort Asset_util.Id.Tid.compare l in
  let expected =
    Array.to_list tids
    |> List.filter (fun t ->
           (not (Asset_util.Id.Tid.is_null t)) && Asset_core.Status.active (E.status db t))
    |> sorted
  in
  let captured =
    match Asset_wal.Log.get (E.log db) (E.checkpoint db) with
    | Asset_wal.Record.Checkpoint { active; _ } ->
        sorted (List.map (fun (e : Asset_wal.Record.att_entry) -> e.att_tid) active)
    | _ -> []
  in
  if sorted (E.active_transactions db) <> expected || captured <> expected then
    incr active_set_mismatches

let prop_active_set_matches_fold =
  QCheck2.Test.make ~name:"active set = fold over every TD" ~count:150 ~print:pp_lock_history
    gen_lock_history (fun h ->
      active_set_mismatches := 0;
      ignore (run_lock_history ~probe:check_active_set h);
      !active_set_mismatches = 0)

let () =
  Alcotest.run "asset_properties"
    [
      ( "serializability",
        [
          QCheck_alcotest.to_alcotest (prop_counter_serializability "fifo" Sched.Fifo);
          QCheck_alcotest.to_alcotest
            (prop_counter_serializability "random" (Sched.Random_seeded 424242));
          Alcotest.test_case "rmw sum matches commits" `Quick test_rmw_sum_matches_commits;
        ] );
      ( "conservation",
        [
          QCheck_alcotest.to_alcotest prop_bank_total_conserved;
          QCheck_alcotest.to_alcotest prop_bank_conserved_random_schedules;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fifo identical" `Quick test_fifo_runs_identical;
          Alcotest.test_case "seeded identical" `Quick test_seeded_runs_identical;
          Alcotest.test_case "seeds explore" `Quick test_different_seeds_explore;
        ] );
      ( "model_invariants",
        [
          Alcotest.test_case "nested under random schedules" `Quick
            test_nested_invariant_random_schedules;
          Alcotest.test_case "distributed under random schedules" `Quick
            test_distributed_invariant_random_schedules;
          Alcotest.test_case "increments under random schedules" `Quick
            test_increment_invariant_random_schedules;
          Alcotest.test_case "saga under random schedules" `Quick
            test_saga_invariant_random_schedules;
        ] );
      ( "semantic",
        [
          QCheck_alcotest.to_alcotest prop_readonly_never_blocks_or_aborts;
          QCheck_alcotest.to_alcotest prop_escrow_bounds_respected;
          Alcotest.test_case "version gc bounded" `Quick test_version_gc_bounded;
          Alcotest.test_case "enqueue undo is logical" `Quick test_enqueue_logical_undo;
          QCheck_alcotest.to_alcotest prop_queue_push_appends;
          QCheck_alcotest.to_alcotest prop_queue_remove_last_matches_list;
          QCheck_alcotest.to_alcotest prop_engine_undo_matches_recovery;
          Alcotest.test_case "undo of a phantom object" `Quick test_undo_phantom_object;
          Alcotest.test_case "lock table empties" `Quick test_lock_table_empties;
          QCheck_alcotest.to_alcotest prop_active_set_matches_fold;
        ] );
      ( "workload",
        [
          Alcotest.test_case "counts consistent" `Quick test_workload_counts_consistent;
          Alcotest.test_case "no contention no aborts" `Quick test_workload_no_contention_no_aborts;
          Alcotest.test_case "zipf increases waits" `Quick
            test_workload_zipf_contention_increases_waits;
          Alcotest.test_case "rmw mode runs" `Quick test_workload_rmw_mode_runs;
        ] );
    ]
