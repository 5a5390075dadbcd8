(* The ASSET benchmark harness.

   The paper has no quantitative evaluation (see DESIGN.md); this
   harness regenerates its one structural figure and produces the
   characterisation tables DESIGN.md defines in its place.  Each
   experiment prints its tables and checks its invariants with
   [Harness.check]; E17-E25 also write a BENCH_*.json artifact with
   [Harness.write_artifact].  `dune exec bench/main.exe` runs them all
   and exits 1 if any check failed.  Micro-benchmarks (E1, E4, E12) use
   Bechamel; workload experiments report wall-clock throughput and
   engine counters. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap = Asset_storage.Heap_store
module Lm = Asset_lock.Lock_manager
module Ops = Asset_lock.Mode.Ops
module Mode = Asset_lock.Mode
module Dt = Asset_deps.Dep_type
module Dg = Asset_deps.Dep_graph
module Log = Asset_wal.Log
module Record = Asset_wal.Record
module Recovery = Asset_wal.Recovery
module Table = Asset_util.Table
module Rng = Asset_util.Rng
module Workload = Asset_workload.Workload
module Bank = Asset_workload.Bank
open Asset_models
open Harness

let oid = Oid.of_int
let vi = Value.of_int

let fresh_db ?config ~objects () =
  let store = Heap.store () in
  Heap.populate store ~n:objects ~value:(fun _ -> vi 0);
  E.create ?config store

let stat db name = List.assoc name (E.stats db)

(* Every transaction permits every other one all ops on [o]: the
   blanket cooperation E3 and E22b price. *)
let permit_all db tids o =
  List.iter
    (fun ti ->
      List.iter
        (fun tj -> if not (Tid.equal ti tj) then E.permit db ~from_:ti ~to_:tj ~oids:[ o ] ~ops:Ops.all)
        tids)
    tids

(* ------------------------------------------------------------------ *)
(* F1: Figure 1 — the object descriptor                                *)

let fig1 () =
  let lm = Lm.create () in
  let t n = Tid.of_int n in
  ignore (Lm.acquire lm (t 1) (oid 1) Mode.Read);
  ignore (Lm.acquire lm (t 2) (oid 1) Mode.Read);
  ignore (Lm.acquire lm (t 3) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(t 1) ~grantee:(Some (t 4)) ~oid:(oid 1) ~ops:Ops.write_only;
  Format.printf "@.== F1: Figure 1 — object descriptor structure ==@.";
  Format.printf "%a@." (Lm.pp_od lm) (oid 1)

(* ------------------------------------------------------------------ *)
(* E1: primitive overhead                                              *)

let e1_primitives () =
  let run_txn n_writes () =
    let db = fresh_db ~objects:16 () in
    R.run_exn db (fun () ->
        let t =
          E.initiate db (fun () ->
              for i = 1 to n_writes do
                E.write db (oid i) (vi i)
              done)
        in
        ignore (E.begin_ db t);
        ignore (E.commit db t))
  in
  let baseline () =
    let db = fresh_db ~objects:16 () in
    R.run_exn db (fun () -> ())
  in
  let results =
    bechamel_measure
      [
        ("scheduler only (no txn)", baseline);
        ("empty transaction", run_txn 0);
        ("transaction, 1 write", run_txn 1);
        ("transaction, 8 writes", run_txn 8);
      ]
  in
  let t = Table.create ~title:"E1: primitive overhead (initiate/begin/commit path)"
      ~header:[ "case"; "ns/run" ] in
  List.iter (fun (name, ns) -> Table.add_row t [ name; Table.fmt_f ~digits:0 ns ]) results;
  Table.print t

(* ------------------------------------------------------------------ *)
(* E2: lock manager scalability                                        *)

let e2_lockmgr () =
  let t =
    Table.create ~title:"E2: lock manager under contention (64 txns x 8 ops)"
      ~header:[ "objects"; "w%"; "theta"; "committed"; "victims"; "lock waits"; "txn/s" ]
  in
  List.iter
    (fun n_objects ->
      List.iter
        (fun write_ratio ->
          List.iter
            (fun theta ->
              let m =
                Workload.run
                  {
                    Workload.default_spec with
                    Workload.n_objects;
                    n_txns = 64;
                    ops_per_txn = 8;
                    write_ratio;
                    theta;
                    seed = 7;
                  }
              in
              Table.add_row t
                [
                  Table.fmt_i n_objects;
                  Table.fmt_i (int_of_float (write_ratio *. 100.));
                  Table.fmt_f ~digits:1 theta;
                  Table.fmt_i m.Workload.committed;
                  Table.fmt_i m.Workload.deadlock_victims;
                  Table.fmt_i m.Workload.lock_waits;
                  Table.fmt_f ~digits:0 m.Workload.throughput;
                ])
            [ 0.0; 0.9 ])
        [ 0.1; 0.5 ])
    [ 16; 256; 4096 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E3: permit vs blocking on a hot object                              *)

let e3_permit () =
  let run ~n_txns ~with_permits =
    let db = fresh_db ~objects:4 () in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              let bodies =
                List.init n_txns (fun _ () ->
                    for _ = 1 to 4 do
                      E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) 1);
                      Sched.yield ()
                    done)
              in
              let tids = List.map (fun b -> E.initiate db b) bodies in
              if with_permits then begin
                (* Everyone cooperates on the hot object: blanket
                   permits plus a commit group. *)
                permit_all db tids (oid 1);
                let rec chain = function
                  | a :: (b :: _ as rest) ->
                      ignore (E.form_dependency db Dt.GC a b);
                      chain rest
                  | _ -> ()
                in
                chain tids
              end;
              List.iter (fun t -> ignore (E.begin_ db t)) tids;
              List.iter
                (fun t -> E.spawn db ~label:"c" (fun () -> ignore (E.commit db t)))
                tids;
              E.await_terminated db tids))
    in
    (db, dt)
  in
  let t =
    Table.create ~title:"E3: cooperative sharing — permit vs blocking (hot object, 4 RMW each)"
      ~header:[ "txns"; "mode"; "committed"; "lock waits"; "suspensions"; "ms" ]
  in
  List.iter
    (fun n_txns ->
      List.iter
        (fun with_permits ->
          let db, dt = run ~n_txns ~with_permits in
          Table.add_row t
            [
              Table.fmt_i n_txns;
              (if with_permits then "permit" else "blocking");
              Table.fmt_i (stat db "commits");
              Table.fmt_i (stat db "lock_waits");
              Table.fmt_i (stat db "lock.suspensions");
              Table.fmt_f ~digits:2 (dt *. 1000.);
            ])
        [ false; true ])
    [ 2; 8; 16 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E4: delegation cost                                                 *)

let e4_delegate () =
  let t =
    Table.create ~title:"E4: delegate cost vs locked objects (split transaction)"
      ~header:[ "objects delegated"; "us/delegate"; "us/object" ]
  in
  List.iter
    (fun k ->
      let db = fresh_db ~objects:(k + 1) () in
      let total = ref 0.0 in
      let rounds = 20 in
      R.run_exn db (fun () ->
          for _ = 1 to rounds do
            let holder =
              E.initiate db (fun () ->
                  for i = 1 to k do
                    E.write db (oid i) (vi 1)
                  done)
            in
            let target = E.initiate db (fun () -> ()) in
            ignore (E.begin_ db holder);
            ignore (E.wait db holder);
            let _, dt = time_of (fun () -> E.delegate db ~from_:holder ~to_:target) in
            total := !total +. dt;
            ignore (E.begin_ db target);
            ignore (E.commit db target);
            ignore (E.commit db holder)
          done);
      let us = !total /. float_of_int rounds *. 1e6 in
      Table.add_row t
        [ Table.fmt_i k; Table.fmt_f ~digits:1 us; Table.fmt_f ~digits:3 (us /. float_of_int k) ])
    [ 1; 16; 256; 1024 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E5: nested transactions — depth and fanout                          *)

let e5_nested () =
  let t =
    Table.create ~title:"E5: nested transactions vs flat (same total writes)"
      ~header:[ "shape"; "writes"; "mode"; "ms"; "abort contained" ]
  in
  let flat_time writes =
    let db = fresh_db ~objects:(writes + 1) () in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              ignore
                (Atomic.run db (fun () ->
                     for i = 1 to writes do
                       E.write db (oid i) (vi i)
                     done))))
    in
    dt
  in
  let nested_time ~depth ~fanout =
    let counter = ref 0 in
    let db = fresh_db ~objects:1024 () in
    let rec build level () =
      if level = 0 then begin
        incr counter;
        E.write db (oid !counter) (vi 1)
      end
      else
        for _ = 1 to fanout do
          Nested.sub_exn db (build (level - 1))
        done
    in
    let _, dt = time_of (fun () -> R.run_exn db (fun () -> ignore (Nested.root db (build depth)))) in
    (dt, !counter)
  in
  List.iter
    (fun (depth, fanout) ->
      let dt, writes = nested_time ~depth ~fanout in
      let flat = flat_time writes in
      Table.add_row t
        [
          Printf.sprintf "depth=%d fanout=%d" depth fanout;
          Table.fmt_i writes;
          "nested";
          Table.fmt_f ~digits:2 (dt *. 1000.);
          "-";
        ];
      Table.add_row t
        [
          Printf.sprintf "depth=%d fanout=%d" depth fanout;
          Table.fmt_i writes;
          "flat";
          Table.fmt_f ~digits:2 (flat *. 1000.);
          "-";
        ])
    [ (1, 4); (2, 4); (3, 4); (6, 2) ];
  (* Abort containment: a failing child under `Report leaves the parent
     free to commit. *)
  let db = fresh_db ~objects:8 () in
  let contained = ref false in
  R.run_exn db (fun () ->
      let r =
        Nested.root db (fun () ->
            ignore (Nested.sub db (fun () -> failwith "child"));
            E.write db (oid 1) (vi 1))
      in
      contained := r = `Committed);
  Table.add_row t
    [ "child abort, report policy"; "1"; "nested"; "-"; string_of_bool !contained ];
  Table.print t;
  check "E5: a child abort under the report policy is contained" !contained

(* ------------------------------------------------------------------ *)
(* E6: sagas vs long atomic transactions                               *)

let e6_saga () =
  let t =
    Table.create
      ~title:"E6: saga vs flat atomic — lock exposure and abort cost (chain of n steps)"
      ~header:[ "n"; "abort@"; "mode"; "committed txns"; "compensations"; "max locks held"; "ms" ]
  in
  let saga_steps db n ~fail_at =
    List.init n (fun i ->
        if i = n - 1 && fail_at = None then
          Saga.step ~label:"last" (fun () -> E.write db (oid (i + 1)) (vi 1))
        else
          Saga.step ~label:(string_of_int i)
            ~compensate:(fun () -> E.write db (oid (i + 1)) (vi 0))
            (fun () ->
              if fail_at = Some i then failwith "injected";
              E.write db (oid (i + 1)) (vi 1)))
  in
  let run_saga n ~fail_at =
    let db = fresh_db ~objects:(n + 1) () in
    let comps = ref 0 in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              match Saga.run db (saga_steps db n ~fail_at) with
              | Saga.Committed -> ()
              | Saga.Rolled_back { compensated; _ } -> comps := compensated))
    in
    (db, dt, !comps)
  in
  let run_flat n ~fail_at =
    let db = fresh_db ~objects:(n + 1) () in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              ignore
                (Atomic.run db (fun () ->
                     for i = 1 to n do
                       if fail_at = Some (i - 1) then failwith "injected";
                       E.write db (oid i) (vi 1)
                     done))))
    in
    (db, dt)
  in
  List.iter
    (fun n ->
      List.iter
        (fun fail_at ->
          let db, dt, comps = run_saga n ~fail_at in
          let fail_label = match fail_at with None -> "-" | Some k -> string_of_int k in
          Table.add_row t
            [
              Table.fmt_i n;
              fail_label;
              "saga";
              Table.fmt_i (stat db "commits");
              Table.fmt_i comps;
              (* Each saga component holds at most its own step's lock. *)
              "1";
              Table.fmt_f ~digits:2 (dt *. 1000.);
            ];
          let db, dt = run_flat n ~fail_at in
          Table.add_row t
            [
              Table.fmt_i n;
              fail_label;
              "flat";
              Table.fmt_i (stat db "commits");
              "0";
              Table.fmt_i (match fail_at with None -> n | Some k -> k);
              Table.fmt_f ~digits:2 (dt *. 1000.);
            ])
        [ None; Some (n / 2) ])
    [ 4; 16; 32 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E7: group commit resolution                                         *)

let e7_groupcommit () =
  let t =
    Table.create ~title:"E7: group commit (GC mark handshake), commit order permuted"
      ~header:[ "group size"; "order seed"; "committed"; "commit records"; "retries"; "ms" ]
  in
  List.iter
    (fun size ->
      List.iter
        (fun seed ->
          let db = fresh_db ~objects:(size + 1) () in
          let _, dt =
            time_of (fun () ->
                R.run_exn db (fun () ->
                    let tids =
                      List.init size (fun i ->
                          E.initiate db (fun () -> E.write db (oid (i + 1)) (vi 1)))
                    in
                    let rec chain = function
                      | a :: (b :: _ as rest) ->
                          ignore (E.form_dependency db Dt.GC a b);
                          chain rest
                      | _ -> ()
                    in
                    chain tids;
                    List.iter (fun x -> ignore (E.begin_ db x)) tids;
                    (* Commit in a permuted order from separate fibers. *)
                    let arr = Array.of_list tids in
                    Rng.shuffle_in_place (Rng.create seed) arr;
                    Array.iter
                      (fun x -> E.spawn db ~label:"c" (fun () -> ignore (E.commit db x)))
                      arr;
                    E.await_terminated db tids))
          in
          let commit_records = ref 0 in
          Log.iter (E.log db) (fun _ r ->
              match r with Record.Commit _ -> incr commit_records | _ -> ());
          Table.add_row t
            [
              Table.fmt_i size;
              Table.fmt_i seed;
              Table.fmt_i (stat db "commits");
              Table.fmt_i !commit_records;
              Table.fmt_i (stat db "commit_retries");
              Table.fmt_f ~digits:2 (dt *. 1000.);
            ])
        [ 1; 2 ])
    [ 2; 8; 64 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E8: cursor stability vs repeatable read                             *)

let e8_cursor () =
  let t =
    Table.create
      ~title:"E8: cursor stability vs strict 2PL (1 scanner over R records, W writers)"
      ~header:[ "records"; "writers"; "mode"; "writer waits"; "writers done before scan end" ]
  in
  let run ~records ~writers ~stable =
    let db = fresh_db ~objects:(records + 1) () in
    let early = ref 0 in
    R.run_exn db (fun () ->
        let record_oids = List.init records (fun i -> oid (i + 1)) in
        let scanner =
          E.initiate db (fun () ->
              if stable then Cursor_stability.scan db record_oids ~f:(fun _ _ -> Sched.yield ())
              else Cursor_stability.scan_repeatable db record_oids ~f:(fun _ _ -> Sched.yield ()))
        in
        let writer_tids =
          List.init writers (fun w ->
              E.initiate db (fun () ->
                  E.write db (oid ((w mod records) + 1)) (vi 99);
                  if not (E.is_terminated db scanner) then incr early))
        in
        ignore (E.begin_ db scanner);
        Sched.yield ();
        List.iter (fun w -> ignore (E.begin_ db w)) writer_tids;
        List.iter
          (fun w -> E.spawn db ~label:"cw" (fun () -> ignore (E.commit db w)))
          writer_tids;
        ignore (E.commit db scanner);
        E.await_terminated db (scanner :: writer_tids));
    (db, !early)
  in
  List.iter
    (fun (records, writers) ->
      List.iter
        (fun stable ->
          let db, early = run ~records ~writers ~stable in
          Table.add_row t
            [
              Table.fmt_i records;
              Table.fmt_i writers;
              (if stable then "cursor-stability" else "repeatable-read");
              Table.fmt_i (stat db "lock_waits");
              Table.fmt_i early;
            ])
        [ true; false ])
    [ (8, 4); (32, 8) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E10: the appendix workflow under failure injection                  *)

let e10_workflow () =
  let t =
    Table.create ~title:"E10: appendix trip workflow under per-step failure probability"
      ~header:[ "p(fail)"; "runs"; "succeeded"; "avg compensations"; "car booked (of successes)" ]
  in
  let vendors = [ "Delta"; "United"; "American"; "Equator"; "National"; "Avis" ] in
  List.iter
    (fun p ->
      let runs = 200 in
      let rng = Rng.create 21 in
      let successes = ref 0 and comps = ref 0 and cars = ref 0 in
      for _ = 1 to runs do
        let db = fresh_db ~objects:8 () in
        let avail = List.map (fun v -> (v, Rng.float rng >= p)) vendors in
        R.run_exn db (fun () ->
            let mk i v =
              Workflow.task v
                ~compensate:(fun () -> E.write db (oid (i + 1)) (vi 0))
                (fun () ->
                  if not (List.assoc v avail) then failwith "unavailable";
                  E.write db (oid (i + 1)) (vi 1))
            in
            let wf =
              Workflow.(
                Seq
                  [
                    Alternatives
                      [ Task (mk 0 "Delta"); Task (mk 1 "United"); Task (mk 2 "American") ];
                    Task (mk 3 "Equator");
                    Optional (Race [ mk 4 "National"; mk 5 "Avis" ]);
                  ])
            in
            let o = Workflow.run db wf in
            if o.Workflow.success then begin
              incr successes;
              let car o' = Value.to_int (Store.read_exn (E.store db) (oid o')) = 1 in
              if car 5 || car 6 then incr cars
            end;
            comps := !comps + List.length (Workflow.compensated_labels o))
      done;
      Table.add_row t
        [
          Table.fmt_f ~digits:1 p;
          Table.fmt_i runs;
          Table.fmt_i !successes;
          Table.fmt_f ~digits:2 (float_of_int !comps /. float_of_int runs);
          Table.fmt_i !cars;
        ])
    [ 0.0; 0.1; 0.3; 0.5 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E11: contingent and distributed model costs                         *)

let e11_models () =
  let t =
    Table.create ~title:"E11: contingent alternatives and distributed group size"
      ~header:[ "model"; "param"; "txns initiated"; "committed"; "ms" ]
  in
  (* Contingent: first k-1 alternatives fail. *)
  List.iter
    (fun k ->
      let db = fresh_db ~objects:4 () in
      let _, dt =
        time_of (fun () ->
            R.run_exn db (fun () ->
                let alts =
                  List.init k (fun i () ->
                      if i < k - 1 then failwith "alt fails" else E.write db (oid 1) (vi 1))
                in
                match Contingent.run db alts with
                | `Committed _ -> ()
                | _ -> failwith "contingent must succeed"))
      in
      Table.add_row t
        [
          "contingent";
          Printf.sprintf "alts=%d" k;
          Table.fmt_i (E.transaction_count db);
          Table.fmt_i (stat db "commits");
          Table.fmt_f ~digits:2 (dt *. 1000.);
        ])
    [ 1; 4; 8 ];
  (* Distributed: group size sweep. *)
  List.iter
    (fun g ->
      let db = fresh_db ~objects:(g + 1) () in
      let _, dt =
        time_of (fun () ->
            R.run_exn db (fun () ->
                let comps = List.init g (fun i () -> E.write db (oid (i + 1)) (vi 1)) in
                match Distributed.run db comps with
                | `Committed -> ()
                | _ -> failwith "distributed must succeed"))
      in
      Table.add_row t
        [
          "distributed";
          Printf.sprintf "group=%d" g;
          Table.fmt_i (E.transaction_count db);
          Table.fmt_i (stat db "commits");
          Table.fmt_f ~digits:2 (dt *. 1000.);
        ])
    [ 2; 8; 32 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E12: dependency graph — cycle check cost per edge                  *)

let e12_deps () =
  let t =
    Table.create ~title:"E12: dependency graph — cycle check cost (random CD/AD edges)"
      ~header:[ "edges"; "accepted"; "rejected"; "us/edge" ]
  in
  List.iter
    (fun n_edges ->
      let g = Dg.create () in
      let rng = Rng.create 3 in
      let n_nodes = max 8 (n_edges / 4) in
      let accepted = ref 0 and rejected = ref 0 in
      let _, dt =
        time_of (fun () ->
            for _ = 1 to n_edges do
              let a = 1 + Rng.int rng n_nodes and b = 1 + Rng.int rng n_nodes in
              if a <> b then
                match
                  Dg.add g
                    (if Rng.bool rng then Dt.CD else Dt.AD)
                    ~master:(Tid.of_int a) ~dependent:(Tid.of_int b)
                with
                | () -> incr accepted
                | exception Dg.Cycle_rejected _ -> incr rejected
            done)
      in
      Table.add_row t
        [
          Table.fmt_i n_edges;
          Table.fmt_i !accepted;
          Table.fmt_i !rejected;
          Table.fmt_f ~digits:3 (dt /. float_of_int n_edges *. 1e6);
        ])
    [ 10; 100; 1_000; 10_000 ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E14: scheduling policy — FIFO vs seeded random                     *)

let e14_ablations () =
  let t =
    Table.create ~title:"E14: scheduling policy (bank workload, 16 accounts, 100 transfers)"
      ~header:[ "policy"; "committed"; "victims"; "total conserved"; "ms" ]
  in
  let run ~policy label =
    let store = Heap.store () in
    Bank.setup store ~accounts:16 ~balance:1_000;
    let db = E.create store in
    let committed = ref 0 and aborted = ref 0 in
    let _, dt =
      time_of (fun () ->
          R.run_exn ~policy db (fun () ->
              let c, a = Bank.run_transfers db ~accounts:16 ~n_txns:100 in
              committed := c;
              aborted := a))
    in
    let conserved = Bank.total db ~accounts:16 = 16_000 in
    Table.add_row t
      [
        label;
        Table.fmt_i !committed;
        Table.fmt_i !aborted;
        string_of_bool conserved;
        Table.fmt_f ~digits:2 (dt *. 1000.);
      ];
    conserved
  in
  let conserved =
    List.map
      (fun (policy, label) -> run ~policy label)
      [ (Sched.Fifo, "fifo"); (Sched.Random_seeded 1, "random seed 1"); (Sched.Random_seeded 2, "random seed 2") ]
  in
  Table.print t;
  check "E14: total conserved under every policy" (List.for_all Fun.id conserved)

(* ------------------------------------------------------------------ *)
(* E15: shared-cache vs private-workspace operating mode               *)

let e15_workspace () =
  let t =
    Table.create
      ~title:"E15: operating modes — shared cache vs private workspace (k updates on m objects)"
      ~header:[ "objects"; "updates/object"; "mode"; "log records"; "ms" ]
  in
  let count_updates db =
    let n = ref 0 in
    Log.iter (E.log db) (fun _ r -> match r with Record.Update _ -> incr n | _ -> ());
    !n
  in
  let run ~objects ~updates ~mode =
    let db = fresh_db ~objects () in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              ignore
                (Atomic.run db (fun () ->
                     match mode with
                     | `Shared ->
                         for o = 1 to objects do
                           for u = 1 to updates do
                             E.write db (oid o) (vi u)
                           done
                         done
                     | `Workspace ->
                         Asset_core.Workspace.with_workspace db (fun w ->
                             for o = 1 to objects do
                               for u = 1 to updates do
                                 Asset_core.Workspace.set w (oid o) (vi u)
                               done
                             done)))))
    in
    (count_updates db, dt)
  in
  List.iter
    (fun (objects, updates) ->
      List.iter
        (fun mode ->
          let log_records, dt = run ~objects ~updates ~mode in
          Table.add_row t
            [
              Table.fmt_i objects;
              Table.fmt_i updates;
              (match mode with `Shared -> "shared cache" | `Workspace -> "workspace");
              Table.fmt_i log_records;
              Table.fmt_f ~digits:2 (dt *. 1000.);
            ])
        [ `Shared; `Workspace ])
    [ (8, 10); (8, 100); (64, 100) ];
  Table.print t

(* ------------------------------------------------------------------ *)
(* E17: hot-path gates (ISSUE 1 "E13") — scheduler step cost with many
   parked fibers, and WAL group-commit throughput.  Emits the
   machine-readable BENCH_hotpath.json so the perf trajectory is
   tracked across PRs. *)

(* One busy fiber takes [yields] steps while [parked] fibers sit on a
   wake condition.  "versioned" parks register a version watch, so the
   scheduler skips them while the version is unchanged; "polled" parks
   re-run every condition after every step — the pre-overhaul O(n)
   behaviour, kept as the in-binary baseline. *)
let hotpath_sched_case ~parked ~yields ~versioned =
  let s = Sched.create () in
  let ver = ref 0 in
  Sched.set_clock s (fun () -> !ver);
  for _ = 1 to parked do
    ignore
      (Sched.spawn s ~label:"parked" (fun () ->
           let v = !ver in
           if versioned then Sched.wait_until ~reason:"parked" ~watch:v (fun () -> !ver > v)
           else Sched.wait_until ~reason:"parked" (fun () -> !ver > v)))
  done;
  ignore
    (Sched.spawn s ~label:"worker" (fun () ->
         for _ = 1 to yields do
           Sched.yield ()
         done;
         incr ver));
  let (), dt = time_of (fun () -> Sched.run s) in
  (dt, Sched.steps s)

(* [sessions] fibers over a segment-directory log, each committing its
   share of [n_txns] single-write transactions one after another.  A
   lone session pays one fsync per commit; concurrent sessions stage
   their commit records and share the force at scheduler quiescence. *)
let hotpath_commit_case ~n_txns ~sessions =
  let dir = Filename.temp_dir "asset_hotpath" ".wal" in
  let log = Log.create_dir dir in
  let store = Heap.store () in
  Heap.populate store ~n:(n_txns + 1) ~value:(fun _ -> vi 0);
  let db = E.create ~log store in
  let per_session = n_txns / sessions in
  let (), dt =
    time_of (fun () ->
        R.run_exn db (fun () ->
            for j = 0 to sessions - 1 do
              E.spawn db ~label:"session" (fun () ->
                  for i = 1 to per_session do
                    let o = oid ((j * per_session) + i) in
                    let t = E.initiate db (fun () -> E.write db o (vi 1)) in
                    ignore (E.begin_ db t);
                    ignore (E.commit db t)
                  done)
            done))
  in
  let forces = Log.force_count log in
  let commits = stat db "commits" in
  let group_commits = stat db "group_commits" in
  Log.close log;
  Log.remove_dir dir;
  (dt, forces, commits, group_commits)

let e17_hotpath () =
  let parked_counts = if !smoke then [ 10; 100 ] else [ 10; 100; 1000 ] in
  let yields = if !smoke then 2_000 else 20_000 in
  let txn_counts = if !smoke then [ 64 ] else [ 64; 1024 ] in
  let session_counts = [ 1; 8; 64 ] in
  (* Scheduler step cost. *)
  let sched_rows =
    List.concat_map
      (fun parked ->
        List.map
          (fun versioned ->
            let dt, steps = hotpath_sched_case ~parked ~yields ~versioned in
            let ns = dt /. float_of_int steps *. 1e9 in
            (parked, (if versioned then "versioned" else "polled"), ns, steps))
          [ false; true ])
      parked_counts
  in
  let t =
    Table.create
      ~title:"E17a: scheduler step cost vs parked fibers (polled = pre-overhaul wake behaviour)"
      ~header:[ "parked"; "wakeups"; "ns/step"; "steps" ]
  in
  List.iter
    (fun (parked, mode, ns, steps) ->
      Table.add_row t [ Table.fmt_i parked; mode; Table.fmt_f ~digits:1 ns; Table.fmt_i steps ])
    sched_rows;
  Table.print t;
  (* Commit throughput on a fsynced segment-directory log. *)
  let commit_rows =
    List.concat_map
      (fun n_txns ->
        List.map
          (fun sessions ->
            let dt, forces, commits, group_commits = hotpath_commit_case ~n_txns ~sessions in
            let tps = float_of_int commits /. dt in
            (n_txns, sessions, dt, tps, forces, commits, group_commits))
          session_counts)
      txn_counts
  in
  let t =
    Table.create
      ~title:"E17b: commit throughput on a fsynced log vs concurrent sessions"
      ~header:[ "txns"; "sessions"; "committed"; "log forces"; "group commits"; "txn/s" ]
  in
  List.iter
    (fun (n_txns, sessions, _dt, tps, forces, commits, group_commits) ->
      Table.add_row t
        [
          Table.fmt_i n_txns;
          Table.fmt_i sessions;
          Table.fmt_i commits;
          Table.fmt_i forces;
          Table.fmt_i group_commits;
          Table.fmt_f ~digits:0 tps;
        ])
    commit_rows;
  Table.print t;
  write_artifact ~name:"hotpath" ~experiment:"E17-hotpath"
    Json.
      [
        ( "scheduler_step",
          records
            (fun (parked, mode, ns, steps) ->
              [ ("parked", Int parked); ("mode", Str mode); ("ns_per_step", fixed 2 ns); ("steps", Int steps) ])
            sched_rows );
        ( "commit_throughput",
          records
            (fun (n_txns, sessions, dt, tps, forces, commits, group_commits) ->
              [
                ("txns", Int n_txns);
                ("sessions", Int sessions);
                ("seconds", fixed 6 dt);
                ("txn_per_s", fixed 1 tps);
                ("log_forces", Int forces);
                ("committed", Int commits);
                ("group_commits", Int group_commits);
              ])
            commit_rows );
      ]

(* ------------------------------------------------------------------ *)
(* E18: lock-manager hot path — indexed descriptors and the deadlock
   search over the waits-for graph derived from the pending requests.
   Emits BENCH_lockpath.json so the lock-path perf trajectory is
   tracked across PRs. *)

(* Acquire+release cost seen by one transaction when every object
   already carries [holders] granted Read locks: the conflict scan
   walks [holders] entries, but all descriptor bookkeeping (find,
   insert, release) should stay O(1). *)
let lockpath_acquire_case ~objects ~holders ~iters =
  let lm = Lm.create () in
  for h = 1 to holders do
    for o = 1 to objects do
      ignore (Lm.acquire lm (Tid.of_int h) (oid o) Mode.Read)
    done
  done;
  let me = Tid.of_int (holders + 1) in
  let (), dt =
    time_of (fun () ->
        for _ = 1 to iters do
          for o = 1 to objects do
            ignore (Lm.acquire lm me (oid o) Mode.Read)
          done;
          ignore (Lm.release_all lm me)
        done)
  in
  dt /. float_of_int (iters * objects) *. 1e9

(* The stall hook's deadlock search.  [objects] transactions each hold
   their own object (live-transaction count scales with the store) and
   [waiters] further transactions form a blocked chain with no cycle —
   the worst case, since the search cannot stop early.  Returns the
   cost of one [find_cycle] in µs, whether any check reported a cycle,
   and whether one is found once the chain's tail requests the head's
   object, closing it. *)
let lockpath_deadlock_case ~objects ~waiters ~checks =
  let lm = Lm.create () in
  for o = 1 to objects do
    ignore (Lm.acquire lm (Tid.of_int o) (oid o) Mode.Write)
  done;
  for w = 1 to waiters do
    ignore (Lm.acquire lm (Tid.of_int (w + 1)) (oid w) Mode.Write)
  done;
  let found = ref false in
  let (), dt =
    time_of (fun () ->
        for _ = 1 to checks do
          if Lm.find_cycle lm <> None then found := true
        done)
  in
  ignore (Lm.acquire lm (Tid.of_int 1) (oid (waiters + 1)) Mode.Write);
  let closed = Lm.find_cycle lm <> None in
  (dt /. float_of_int checks *. 1e6, !found, closed)

(* End-to-end: Zipf-contended read-modify-write batches (the classic
   upgrade-deadlock pattern) and the bank-transfer workload, both of
   which hammer acquire/block/abort and the stall hook.  [batch] runs
   on a fresh engine over [store] and returns (committed, aborted);
   the case also reports whether a lock request is still pending once
   the batch is done. *)
let lockpath_batch_case store batch =
  let db = E.create store in
  let committed = ref 0 in
  let (), dt = time_of (fun () -> R.run_exn db (fun () -> committed := fst (batch db))) in
  ( !committed,
    stat db "deadlock_victims",
    stat db "lock_waits",
    float_of_int !committed /. dt,
    Lm.has_pending (E.locks db) )

let lockpath_workload_case ~theta ~n_txns =
  let spec =
    {
      Workload.default_spec with
      Workload.n_objects = 64;
      n_txns;
      ops_per_txn = 8;
      write_ratio = 0.5;
      theta;
      seed = 11;
      read_modify_write = true;
    }
  in
  let store = Heap.store () in
  Heap.populate store ~n:spec.n_objects ~value:(fun _ -> Value.of_int 0);
  let txns = Workload.generate spec in
  lockpath_batch_case store (fun db -> Workload.run_batch db ~yield:spec.yield_between_ops ~rmw:true txns)

let lockpath_bank_case ~n_txns =
  let accounts = 8 in
  let store = Heap.store () in
  Bank.setup store ~accounts ~balance:1_000;
  lockpath_batch_case store (fun db -> Bank.run_transfers db ~accounts ~n_txns)

let e18_lockpath () =
  let object_counts = if !smoke then [ 16; 256 ] else [ 16; 256; 1024 ] in
  let holder_counts = if !smoke then [ 1; 8 ] else [ 1; 8; 32 ] in
  let dl_objects = if !smoke then [ 100; 1_000 ] else [ 100; 1_000; 10_000 ] in
  let dl_waiters = if !smoke then [ 8 ] else [ 8; 64 ] in
  let checks = if !smoke then 50 else 500 in
  let wl_txns = if !smoke then 48 else 256 in
  let bank_txns = if !smoke then 50 else 400 in
  (* Acquire/release ns per op. *)
  let acq_rows =
    List.concat_map
      (fun objects ->
        List.map
          (fun holders ->
            let iters = max 1 ((if !smoke then 20_000 else 200_000) / objects) in
            let ns = lockpath_acquire_case ~objects ~holders ~iters in
            (objects, holders, ns))
          holder_counts)
      object_counts
  in
  let t =
    Table.create
      ~title:"E18a: acquire+release cost vs objects and granted holders per object"
      ~header:[ "objects"; "holders"; "ns/op" ]
  in
  List.iter
    (fun (objects, holders, ns) ->
      Table.add_row t [ Table.fmt_i objects; Table.fmt_i holders; Table.fmt_f ~digits:1 ns ])
    acq_rows;
  Table.print t;
  (* Stall-hook deadlock-check cost. *)
  let dl_rows =
    List.concat_map
      (fun objects ->
        List.map
          (fun waiters ->
            let us, found, closed = lockpath_deadlock_case ~objects ~waiters ~checks in
            (objects, waiters, us, found, closed))
          dl_waiters)
      dl_objects
  in
  let t =
    Table.create
      ~title:"E18b: deadlock-check cost vs live txns (one per object) and pending requests"
      ~header:[ "txns"; "pending"; "find_cycle us" ]
  in
  List.iter
    (fun (objects, waiters, us, _, _) ->
      Table.add_row t [ Table.fmt_i objects; Table.fmt_i waiters; Table.fmt_f ~digits:2 us ])
    dl_rows;
  Table.print t;
  check "E18b: no chain row reports a cycle" (List.for_all (fun (_, _, _, found, _) -> not found) dl_rows);
  check "E18b: closing each chain makes find_cycle report a cycle"
    (List.for_all (fun (_, _, _, _, closed) -> closed) dl_rows);
  (* Contended workloads end to end. *)
  let wl_rows =
    List.map
      (fun theta -> (Printf.sprintf "rmw zipf %.2f" theta, lockpath_workload_case ~theta ~n_txns:wl_txns))
      [ 0.0; 0.99 ]
    @ [ ("bank transfers", lockpath_bank_case ~n_txns:bank_txns) ]
  in
  let t =
    Table.create
      ~title:"E18c: contended workload throughput through the overhauled lock path"
      ~header:[ "workload"; "committed"; "victims"; "lock waits"; "txn/s" ]
  in
  List.iter
    (fun (name, (committed, victims, waits, tps, _)) ->
      Table.add_row t
        [
          name;
          Table.fmt_i committed;
          Table.fmt_i victims;
          Table.fmt_i waits;
          Table.fmt_f ~digits:0 tps;
        ])
    wl_rows;
  Table.print t;
  check "E18c: nothing pending after each workload"
    (List.for_all (fun (_, (_, _, _, _, pending)) -> not pending) wl_rows);
  write_artifact ~name:"lockpath" ~experiment:"E18-lockpath"
    Json.
      [
        ( "acquire_release",
          records
            (fun (objects, holders, ns) ->
              [ ("objects", Int objects); ("holders", Int holders); ("ns_per_op", fixed 2 ns) ])
            acq_rows );
        ( "deadlock_check",
          records
            (fun (objects, waiters, us, _, _) ->
              [ ("txns", Int objects); ("pending", Int waiters); ("find_cycle_us", fixed 3 us) ])
            dl_rows );
        ( "workload",
          records
            (fun (name, (committed, victims, waits, tps, _)) ->
              [
                ("name", Str name);
                ("committed", Int committed);
                ("victims", Int victims);
                ("lock_waits", Int waits);
                ("txn_per_s", fixed 1 tps);
              ])
            wl_rows );
      ]

(* ------------------------------------------------------------------ *)
(* E19: fault injection and recovery (ISSUE 3) — crash-recovery torture
   throughput, recovery latency, bounded retry under transient fault
   rates, and the lock-wait timeout backstop.  Emits BENCH_faults.json. *)

module Torture = Asset_workload.Torture

(* Crossed lock-order pairs with deadlock detection off: only the
   lock-wait timeout keeps the batch live.  Victims are retried by the
   bounded-retry combinator, so every transfer eventually commits. *)
let faults_timeout_case ~pairs ~timeout_steps ~max_retries =
  let config =
    { E.default_config with deadlock_detection = false; lock_wait_timeout_steps = timeout_steps }
  in
  let db = fresh_db ~config ~objects:(2 * pairs) () in
  let body a b () =
    E.modify db (oid a) (fun _ -> vi a);
    Sched.yield ();
    E.modify db (oid b) (fun _ -> vi b)
  in
  let bodies =
    List.concat_map
      (fun i -> [ body ((2 * i) + 1) ((2 * i) + 2); body ((2 * i) + 2) ((2 * i) + 1) ])
      (List.init pairs (fun i -> i))
  in
  let rng = Rng.create 0x19f in
  let metrics = ref { Workload.r_committed = 0; r_retries = 0; r_gave_up = 0 } in
  let (), dt =
    time_of (fun () ->
        R.run_exn db (fun () -> metrics := Workload.run_bodies_with_retry ~max_retries ~rng db bodies))
  in
  (!metrics, stat db "lock_timeouts", dt)

let e19_faults () =
  (* E19a: the exhaustive WAL-boundary crash sweep, one row per workload seed. *)
  let spec = Torture.default_spec in
  let seeds = if !smoke then [ spec.seed ] else [ spec.seed; 97 ] in
  let sweeps =
    List.map (fun seed -> (seed, Torture.crash_at_every_boundary { spec with seed })) seeds
  in
  let t =
    Table.create ~title:"E19a: crash at every WAL record boundary (bank workload)"
      ~header:[ "seed"; "boundaries"; "crashes"; "violations"; "recover ms/run" ]
  in
  List.iter
    (fun (seed, (s : Torture.sweep)) ->
      Table.add_row t
        [
          Table.fmt_i seed;
          Table.fmt_i s.boundaries;
          Table.fmt_i s.crashes;
          Table.fmt_i (List.length s.sweep_failures);
          Table.fmt_f ~digits:3 (s.total_recovery_s /. float_of_int (max 1 s.runs) *. 1e3);
        ])
    sweeps;
  Table.print t;
  check "E19a: no violations at any boundary"
    (List.for_all (fun (_, (s : Torture.sweep)) -> s.sweep_failures = []) sweeps);
  (* E19b: seeded random crash schedules across every failpoint site. *)
  let n_schedules = if !smoke then 50 else 500 in
  let random = Torture.random_crash_schedules ~n:n_schedules spec in
  let t =
    Table.create ~title:"E19b: seeded random crash schedules"
      ~header:[ "schedules"; "crashes"; "violations"; "recover ms/run" ]
  in
  Table.add_row t
    [
      Table.fmt_i random.runs;
      Table.fmt_i random.crashes;
      Table.fmt_i (List.length random.sweep_failures);
      Table.fmt_f ~digits:3 (random.total_recovery_s /. float_of_int (max 1 random.runs) *. 1e3);
    ];
  Table.print t;
  check "E19b: no violations in any schedule" (random.sweep_failures = []);
  (* E19c: bounded retry under transient fault rates. *)
  let rates = if !smoke then [ 0.0; 0.2 ] else [ 0.0; 0.05; 0.2; 0.5 ] in
  let retry_spec = { spec with n_txns = (if !smoke then 12 else 48) } in
  let retry_rows =
    List.map
      (fun rate ->
        let r = Torture.run_retry_workload ~fault_rate:rate ~max_retries:6 retry_spec in
        (rate, r))
      rates
  in
  let t =
    Table.create ~title:"E19c: bounded retry vs transient fault rate"
      ~header:[ "fault rate"; "txns"; "committed"; "retries"; "gave up"; "conserved" ]
  in
  List.iter
    (fun (rate, (r : Torture.retry_outcome)) ->
      Table.add_row t
        [
          Table.fmt_f ~digits:2 rate;
          Table.fmt_i retry_spec.n_txns;
          Table.fmt_i r.committed;
          Table.fmt_i r.retries;
          Table.fmt_i r.gave_up;
          (if r.conserved then "yes" else "NO");
        ])
    retry_rows;
  Table.print t;
  check "E19c: conserved at every fault rate"
    (List.for_all (fun (_, (r : Torture.retry_outcome)) -> r.conserved) retry_rows);
  check "E19c: committed + gave up = txns at every fault rate"
    (List.for_all
       (fun (_, (r : Torture.retry_outcome)) -> r.committed + r.gave_up = retry_spec.n_txns)
       retry_rows);
  check "E19c: engine retries/gave_up = driver sums at every fault rate"
    (List.for_all
       (fun (_, (r : Torture.retry_outcome)) ->
         List.assoc "retries" r.stats = r.retries && List.assoc "gave_up" r.stats = r.gave_up)
       retry_rows);
  (* E19d: the lock-wait timeout backstop (deadlock detection off). *)
  let pairs = if !smoke then 4 else 16 in
  let timeout_steps = 8 in
  let tm, timeouts, dt = faults_timeout_case ~pairs ~timeout_steps ~max_retries:8 in
  let t =
    Table.create ~title:"E19d: lock-wait timeout breaks stalls (detection off)"
      ~header:[ "txns"; "timeout steps"; "committed"; "lock timeouts"; "retries"; "gave up" ]
  in
  Table.add_row t
    [
      Table.fmt_i (2 * pairs);
      Table.fmt_i timeout_steps;
      Table.fmt_i tm.Workload.r_committed;
      Table.fmt_i timeouts;
      Table.fmt_i tm.Workload.r_retries;
      Table.fmt_i tm.Workload.r_gave_up;
    ];
  Table.print t;
  write_artifact ~name:"faults" ~experiment:"E19-faults"
    Json.
      [
        ( "boundary_sweep",
          records
            (fun (seed, (s : Torture.sweep)) ->
              [
                ("seed", Int seed);
                ("boundaries", Int s.boundaries);
                ("crashes", Int s.crashes);
                ("violations", Int (List.length s.sweep_failures));
                ("recovery_total_s", fixed 6 s.total_recovery_s);
              ])
            sweeps );
        ( "random_schedules",
          Obj
            [
              ("runs", Int random.runs);
              ("crashes", Int random.crashes);
              ("violations", Int (List.length random.sweep_failures));
              ("recovery_total_s", fixed 6 random.total_recovery_s);
            ] );
        ( "retry",
          records
            (fun (rate, (r : Torture.retry_outcome)) ->
              [
                ("fault_rate", fixed 2 rate);
                ("txns", Int retry_spec.n_txns);
                ("committed", Int r.committed);
                ("retries", Int r.retries);
                ("gave_up", Int r.gave_up);
                ("seconds", fixed 6 r.duration_s);
                ("conserved", Bool r.conserved);
              ])
            retry_rows );
        ( "lock_timeout",
          Obj
            [
              ("txns", Int (2 * pairs));
              ("timeout_steps", Int timeout_steps);
              ("committed", Int tm.Workload.r_committed);
              ("lock_timeouts", Int timeouts);
              ("retries", Int tm.Workload.r_retries);
              ("gave_up", Int tm.Workload.r_gave_up);
              ("seconds", fixed 6 dt);
            ] );
      ]

(* ------------------------------------------------------------------ *)
(* E20: observability overhead (ISSUE 4) — the event recorder's cost on
   the engine hot path.  Off mode is the acceptance gate: every hot
   site guards its emit behind [Trace.on] (one load, one branch), so an
   uninstalled recorder must price at a handful of ns and leave E17/E18
   unmoved.  Ring-only and memory-sink modes price full tracing.
   Emits BENCH_obs.json. *)

module Trace = Asset_obs.Trace

(* The guard exactly as the hot sites spell it: event construction sits
   inside the branch, so Off mode allocates nothing. *)
let obs_guard_case () =
  if Trace.on () then Trace.emit (Trace.Op { tid = Tid.of_int 1; oid = oid 1; op = 'W' })

let obs_start = function
  | `Off -> ()
  | `Ring -> Trace.start ~capacity:4096 ()
  | `Memory ->
      let _store, sink = Trace.memory_sink () in
      Trace.start ~sinks:[ sink ] ()

let obs_mode_label = function `Off -> "off" | `Ring -> "ring" | `Memory -> "memory sink"

(* n sequential single-fiber transactions of k writes each: the densest
   stream of emit sites (initiate/begin/lock/op/wal/commit) per unit of
   real work the engine can produce. *)
let obs_workload_case ~recorder ~n_txns ~writes =
  let db = fresh_db ~objects:(writes + 1) () in
  obs_start recorder;
  let (), dt =
    time_of (fun () ->
        R.run_exn db (fun () ->
            for _ = 1 to n_txns do
              let t =
                E.initiate db (fun () ->
                    for i = 1 to writes do
                      E.write db (oid i) (vi i)
                    done)
              in
              ignore (E.begin_ db t);
              ignore (E.commit db t)
            done))
  in
  let events = Trace.seq () in
  Trace.stop ();
  (dt, events)

let e20_obs () =
  (* Guard cost per emit site, recorder uninstalled vs installed. *)
  let micro_rows =
    List.concat_map
      (fun recorder ->
        obs_start recorder;
        let r = bechamel_measure [ (obs_mode_label recorder, obs_guard_case) ] in
        Trace.stop ();
        List.map (fun (name, ns) -> (name, ns)) r)
      [ `Off; `Ring; `Memory ]
  in
  let t =
    Table.create ~title:"E20a: per-site emit cost (guard + record when installed)"
      ~header:[ "recorder"; "ns/site" ]
  in
  List.iter
    (fun (name, ns) -> Table.add_row t [ name; Table.fmt_f ~digits:2 ns ])
    micro_rows;
  Table.print t;
  (* End-to-end engine overhead. *)
  let n_txns = if !smoke then 200 else 2_000 in
  let writes = 8 in
  (* One discarded pass so allocator/caches are warm before the off
     baseline is taken. *)
  ignore (obs_workload_case ~recorder:`Off ~n_txns ~writes);
  let base, _ = obs_workload_case ~recorder:`Off ~n_txns ~writes in
  let wl_rows =
    List.map
      (fun recorder ->
        let dt, events = obs_workload_case ~recorder ~n_txns ~writes in
        let us_per_txn = dt /. float_of_int n_txns *. 1e6 in
        let overhead = (dt -. base) /. base *. 100. in
        (obs_mode_label recorder, us_per_txn, events, overhead))
      [ `Off; `Ring; `Memory ]
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "E20b: engine overhead, %d txns x %d writes (overhead vs off re-run)"
           n_txns writes)
      ~header:[ "recorder"; "us/txn"; "events"; "overhead %" ]
  in
  List.iter
    (fun (name, us, events, ov) ->
      Table.add_row t
        [ name; Table.fmt_f ~digits:2 us; Table.fmt_i events; Table.fmt_f ~digits:1 ov ])
    wl_rows;
  Table.print t;
  write_artifact ~name:"obs" ~experiment:"E20-obs"
    Json.
      [
        ( "emit_site",
          records (fun (name, ns) -> [ ("recorder", Str name); ("ns_per_site", fixed 2 ns) ]) micro_rows );
        ( "workload",
          records
            (fun (name, us, events, ov) ->
              [
                ("recorder", Str name);
                ("txns", Int n_txns);
                ("writes_per_txn", Int writes);
                ("us_per_txn", fixed 3 us);
                ("events", Int events);
                ("overhead_pct", fixed 2 ov);
              ])
            wl_rows );
      ]

(* ------------------------------------------------------------------ *)
(* E21: systematic schedule exploration (lib/check).  State-space size
   and sleep-set reduction per canned scenario, plus the mutation
   self-validation matrix.  Emits BENCH_check.json. *)

let e21_check () =
  let module C = Asset_check.Explore in
  let module Scen = Asset_check.Scenario in
  let scenarios =
    if !smoke then
      List.filter_map Scen.by_name [ "handoff"; "cross-locks"; "cd-chain" ]
    else Scen.all
  in
  (* Naive (no-POR) comparison only where the unreduced tree is small
     enough to finish; elsewhere report the POR-only numbers. *)
  let naive_set = [ "handoff"; "cross-locks"; "cd-chain" ] in
  let rows =
    List.map
      (fun (s : Scen.t) ->
        let (r : C.report), dt = time_of (fun () -> C.explore s) in
        let naive =
          if List.mem s.name naive_set then
            Some (C.explore ~options:{ C.default_options with por = false } s)
          else None
        in
        (s.name, r, dt, naive))
      scenarios
  in
  let t =
    Table.create ~title:"E21: systematic schedule exploration (sleep-set POR)"
      ~header:[ "scenario"; "schedules"; "pruned"; "choice pts"; "naive"; "ratio"; "s" ]
  in
  List.iter
    (fun (name, (r : C.report), dt, naive) ->
      Table.add_row t
        [
          name;
          Table.fmt_i r.schedules;
          Table.fmt_i r.pruned;
          Table.fmt_i r.choice_points;
          (match naive with Some (n : C.report) -> Table.fmt_i n.schedules | None -> "-");
          (match naive with
          | Some n ->
              Table.fmt_f ~digits:1
                (float_of_int n.schedules /. float_of_int (max 1 r.schedules))
          | None -> "-");
          Table.fmt_f ~digits:2 dt;
        ])
    rows;
  Table.print t;
  let kills =
    List.map
      (fun m ->
        let scen = C.mutate m (C.kill_scenario m) in
        let (r : C.report), dt = time_of (fun () -> C.explore scen) in
        (scen.name, r, dt))
      C.mutations
  in
  let mt =
    Table.create ~title:"E21b: mutation self-validation"
      ~header:[ "mutation"; "killed"; "schedules"; "counterexample"; "minimized"; "s" ]
  in
  List.iter
    (fun (name, (r : C.report), dt) ->
      let killed, sched, min_ =
        match r.failure with
        | Some f ->
            (true, C.choices_to_string f.schedule, C.choices_to_string f.minimized)
        | None -> (false, "-", "-")
      in
      Table.add_row mt
        [
          name;
          (if killed then "yes" else "NO");
          Table.fmt_i r.schedules;
          (if sched = "" then "(default)" else sched);
          (if killed && min_ = "" then "(default)" else min_);
          Table.fmt_f ~digits:2 dt;
        ])
    kills;
  Table.print mt;
  check "E21: every seeded mutation killed"
    (List.for_all (fun (_, (r : C.report), _) -> r.failure <> None) kills);
  write_artifact ~name:"check" ~experiment:"E21-check"
    Json.
      [
        ( "scenarios",
          records
            (fun (name, (r : C.report), dt, naive) ->
              [
                ("scenario", Str name);
                ("schedules", Int r.schedules);
                ("pruned", Int r.pruned);
                ("choice_points", Int r.choice_points);
                ("completed", Bool r.completed);
                ("naive_schedules", match naive with Some (n : C.report) -> Int n.schedules | None -> Null);
                ("seconds", fixed 3 dt);
              ])
            rows );
        ( "mutations",
          records
            (fun (name, (r : C.report), dt) ->
              [
                ("mutation", Str name);
                ("killed", Bool (r.failure <> None));
                ("schedules", Int r.schedules);
                ( "minimized_len",
                  match r.failure with Some f -> Int (List.length f.minimized) | None -> Null );
                ("seconds", fixed 3 dt);
              ])
            kills );
      ]

(* ------------------------------------------------------------------ *)
(* E22: semantic concurrency — multi-version snapshot reads vs 2PL
   readers under write interference, escrow vs increment vs RMW on the
   hot counter, and version-chain GC.  Emits BENCH_mvcc.json. *)

let e22_mvcc () =
  let accounts = if !smoke then 8 else 16 in
  let n_readers = if !smoke then 16 else 64 in
  (* Readers scan every account; writers are a continuous background
     load of deadlock-prone RMW transfers that stops once the last
     reader finishes, so elapsed time measures reader progress under
     constant interference.  `2pl` runs the scans as ordinary
     transactions (read locks, upgrade deadlocks, retries); `snapshot`
     runs them read-only against begin-timestamp snapshots. *)
  let run_readers mode =
    let store = Heap.store () in
    Bank.setup store ~accounts ~balance:1_000;
    let db = E.create store in
    let reader_commits = ref 0 and reader_aborts = ref 0 in
    let writer_commits = ref 0 in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              let stop = ref false in
              let finished = ref 0 in
              let rng = Rng.create 4242 in
              for w = 1 to 4 do
                E.spawn db ~label:(Printf.sprintf "writer-%d" w) (fun () ->
                    while not !stop do
                      let t = E.initiate db (Bank.random_transfer db ~accounts ~rng) in
                      if (not (Tid.is_null t)) && E.begin_ db t && E.commit db t then
                        incr writer_commits;
                      Sched.yield ()
                    done)
              done;
              let scan () =
                for a = 1 to accounts do
                  ignore (E.read db (Bank.account a));
                  Sched.yield ()
                done
              in
              for r = 1 to n_readers do
                E.spawn db ~label:(Printf.sprintf "reader-%d" r) (fun () ->
                    let rec attempt () =
                      let t =
                        match mode with
                        | `Two_pl -> E.initiate db scan
                        | `Snapshot -> E.initiate ~read_only:true db scan
                      in
                      if (not (Tid.is_null t)) && E.begin_ db t && E.commit db t then
                        incr reader_commits
                      else begin
                        incr reader_aborts;
                        attempt ()
                      end
                    in
                    attempt ();
                    incr finished)
              done;
              Sched.wait_until ~reason:"await readers" (fun () -> !finished = n_readers);
              stop := true))
    in
    (db, !reader_commits, !reader_aborts, !writer_commits, dt)
  in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "E22a: %d read-only scans of %d accounts under continuous RMW transfers"
           n_readers accounts)
      ~header:
        [ "mode"; "readers"; "aborts"; "writer txns"; "lock waits"; "victims"; "snap reads"; "ms"; "readers/s" ]
  in
  let readonly_rows =
    List.map
      (fun mode ->
        let db, commits, aborts, wcommits, dt = run_readers mode in
        let name = match mode with `Two_pl -> "2pl" | `Snapshot -> "snapshot" in
        let per_s = float_of_int commits /. dt in
        Table.add_row t
          [
            name;
            Table.fmt_i commits;
            Table.fmt_i aborts;
            Table.fmt_i wcommits;
            Table.fmt_i (stat db "lock_waits");
            Table.fmt_i (stat db "deadlock_victims");
            Table.fmt_i (stat db "snapshot_reads");
            Table.fmt_f ~digits:2 (dt *. 1000.);
            Table.fmt_f ~digits:0 per_s;
          ];
        (name, commits, aborts, wcommits, dt, per_s))
      [ `Two_pl; `Snapshot ]
  in
  Table.print t;
  let speedup =
    match readonly_rows with
    | [ (_, _, _, _, _, base); (_, _, _, _, _, snap) ] -> snap /. base
    | _ -> 0.
  in
  Format.printf "read-only speedup (snapshot vs 2pl): %.1fx@." speedup;
  check "E22a: snapshot readers never abort"
    (List.for_all (fun (name, _, aborts, _, _, _) -> name <> "snapshot" || aborts = 0) readonly_rows);
  (* E22b: the hot counter — §5's semantic increments against RMW write
     locks and permit-based cooperation, with the escrow path alongside.
     Permits match the increment row's zero waits only by granting
     O(n^2) permits, and unlike increments their before-image undo
     would clobber cooperating updates on abort ([final ok] is the
     correctness column).  Escrow with a slack bound must match the
     increment row (same commuting lock mode, one extra admission
     test); the tight bound shows the admission test refusing exactly
     the overdraft. *)
  let et =
    Table.create
      ~title:"E22b: hot counter — escrow vs increment vs permit vs rmw (4 ops/txn)"
      ~header:[ "txns"; "mode"; "committed"; "victims"; "lock waits"; "violations"; "final ok"; "ms" ]
  in
  let escrow_rows = ref [] in
  let run_counter ~n_txns ~mode =
    let db = fresh_db ~objects:4 () in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              let body () =
                for _ = 1 to 4 do
                  (match mode with
                  | `Increment -> E.increment db (oid 1) 1
                  | `Escrow -> E.escrow db (oid 1) 1 ~lo:0 ~hi:max_int
                  | `Escrow_tight -> E.escrow db (oid 1) 1 ~lo:0 ~hi:8
                  | `Rmw | `Permit -> E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) 1));
                  Sched.yield ()
                done
              in
              let tids = List.init n_txns (fun _ -> E.initiate db body) in
              if mode = `Permit then permit_all db tids (oid 1);
              List.iter (fun x -> ignore (E.begin_ db x)) tids;
              List.iter (fun x -> E.spawn db ~label:"c" (fun () -> ignore (E.commit db x))) tids;
              E.await_terminated db tids))
    in
    let committed = stat db "commits" in
    let violations = stat db "escrow_violations" in
    let final = Value.to_int (Store.read_exn (E.store db) (oid 1)) in
    let final_ok =
      match mode with
      | `Escrow_tight -> final = committed * 4 && final <= 8
      | _ -> final = committed * 4
    in
    let name =
      match mode with
      | `Increment -> "increment"
      | `Escrow -> "escrow"
      | `Escrow_tight -> "escrow[0,8]"
      | `Rmw -> "rmw-2pl"
      | `Permit -> "permit"
    in
    escrow_rows :=
      (name, n_txns, committed, violations, final_ok, dt) :: !escrow_rows;
    Table.add_row et
      [
        Table.fmt_i n_txns;
        name;
        Table.fmt_i committed;
        Table.fmt_i (stat db "deadlock_victims");
        Table.fmt_i (stat db "lock_waits");
        Table.fmt_i violations;
        string_of_bool final_ok;
        Table.fmt_f ~digits:2 (dt *. 1000.);
      ]
  in
  List.iter
    (fun n_txns ->
      List.iter (fun mode -> run_counter ~n_txns ~mode) [ `Rmw; `Permit; `Increment; `Escrow; `Escrow_tight ])
    [ 4; 16 ];
  Table.print et;
  check "E22b: final counter correct in every row"
    (List.for_all (fun (_, _, _, _, final_ok, _) -> final_ok) !escrow_rows);
  (* E22c: version-chain GC.  A pinned snapshot holds every version a
     writer burst creates; closing it collapses the chain back to the
     committed head. *)
  let writes = if !smoke then 50 else 200 in
  let store = Heap.store () in
  Heap.populate store ~n:1 ~value:(fun _ -> vi 0);
  let db = E.create store in
  let pinned_chain = ref 0 and pinned_versions = ref 0 in
  R.run_exn db (fun () ->
      let release = ref false in
      let reader =
        E.initiate ~read_only:true db (fun () ->
            ignore (E.read db (oid 1));
            Sched.wait_until ~reason:"pin snapshot" (fun () -> !release))
      in
      ignore (E.begin_ db reader);
      for i = 1 to writes do
        let w = E.initiate db (fun () -> E.write db (oid 1) (vi i)) in
        ignore (E.begin_ db w);
        ignore (E.commit db w)
      done;
      pinned_chain := E.mvcc_max_chain db;
      pinned_versions := E.mvcc_version_count db;
      release := true;
      ignore (E.commit db reader));
  let after_chain = E.mvcc_max_chain db and after_versions = E.mvcc_version_count db in
  Format.printf
    "E22c: %d committed writes — chain pinned by snapshot: %d (%d versions); after close: %d (%d versions)@."
    writes !pinned_chain !pinned_versions after_chain after_versions;
  check "E22c: the chain collapses to 1 once the snapshot closes" (after_chain = 1);
  (* E22d: escrow under delegation.  Workers reserve on the hot counter
     with escrow, then split-transaction style hand their reservation
     (lock, in-flight delta and all) to a collector that commits the
     batch — the paper's delegate composed with the escrow lock mode.
     Against the baseline where every worker commits individually, the
     delta must survive the handoff bit-for-bit: same final counter,
     zero in-flight reservations left behind. *)
  let dt_ =
    Table.create
      ~title:"E22d: escrow under delegation — batch handoff vs individual commits"
      ~header:[ "mode"; "workers"; "ops"; "commits"; "delegations"; "final"; "final ok"; "ms" ]
  in
  let delegation_rows = ref [] in
  let run_delegation ~mode ~batches ~workers ~ops =
    let db = fresh_db ~objects:4 () in
    let delegations = ref 0 in
    let _, dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              for _b = 1 to batches do
                let work () =
                  for _ = 1 to ops do
                    E.escrow db (oid 1) 1 ~lo:0 ~hi:max_int;
                    Sched.yield ()
                  done
                in
                match mode with
                | `Individual ->
                    let tids = List.init workers (fun _ -> E.initiate db work) in
                    List.iter (fun x -> ignore (E.begin_ db x : bool)) tids;
                    List.iter
                      (fun x -> E.spawn db ~label:"w" (fun () -> ignore (E.commit db x : bool)))
                      tids;
                    E.await_terminated db tids
                | `Delegated ->
                    let collector = E.initiate db (fun () -> ()) in
                    let tids = List.init workers (fun _ -> E.initiate db work) in
                    List.iter (fun x -> ignore (E.begin_ db x : bool)) tids;
                    List.iter
                      (fun x ->
                        ignore (E.wait db x : bool);
                        E.delegate db ~from_:x ~to_:collector;
                        incr delegations)
                      tids;
                    ignore (E.begin_ db collector : bool);
                    ignore (E.commit db collector : bool);
                    List.iter (fun x -> ignore (E.commit db x : bool)) tids;
                    E.await_terminated db (collector :: tids)
              done))
    in
    let final = Value.to_int (Store.read_exn (E.store db) (oid 1)) in
    let final_ok = final = batches * workers * ops && E.escrow_inflight_count db = 0 in
    let name = match mode with `Individual -> "individual" | `Delegated -> "delegated" in
    delegation_rows := (name, workers, ops, stat db "commits", !delegations, final, final_ok, dt) :: !delegation_rows;
    Table.add_row dt_
      [
        name;
        Table.fmt_i workers;
        Table.fmt_i ops;
        Table.fmt_i (stat db "commits");
        Table.fmt_i !delegations;
        Table.fmt_i final;
        string_of_bool final_ok;
        Table.fmt_f ~digits:2 (dt *. 1000.);
      ]
  in
  let batches = if !smoke then 2 else 8 in
  List.iter
    (fun (workers, ops) ->
      run_delegation ~mode:`Individual ~batches ~workers ~ops;
      run_delegation ~mode:`Delegated ~batches ~workers ~ops)
    (if !smoke then [ (4, 4) ] else [ (4, 4); (16, 4) ]);
  Table.print dt_;
  check "E22d: final counter correct in every row"
    (List.for_all (fun (_, _, _, _, _, _, final_ok, _) -> final_ok) !delegation_rows);
  write_artifact ~name:"mvcc" ~experiment:"E22-mvcc"
    Json.
      [
        ( "readonly",
          records
            (fun (name, commits, aborts, wcommits, dt, per_s) ->
              [
                ("mode", Str name);
                ("readers", Int commits);
                ("reader_aborts", Int aborts);
                ("writer_txns", Int wcommits);
                ("seconds", fixed 4 dt);
                ("readers_per_s", fixed 0 per_s);
              ])
            readonly_rows );
        ("readonly_speedup", fixed 2 speedup);
        ( "escrow",
          records
            (fun (name, n_txns, committed, violations, final_ok, dt) ->
              [
                ("mode", Str name);
                ("txns", Int n_txns);
                ("committed", Int committed);
                ("violations", Int violations);
                ("final_ok", Bool final_ok);
                ("seconds", fixed 4 dt);
              ])
            (List.rev !escrow_rows) );
        ( "delegation",
          records
            (fun (name, workers, ops, commits, delegations, final, final_ok, dt) ->
              [
                ("mode", Str name);
                ("workers", Int workers);
                ("ops", Int ops);
                ("commits", Int commits);
                ("delegations", Int delegations);
                ("final", Int final);
                ("final_ok", Bool final_ok);
                ("seconds", fixed 4 dt);
              ])
            (List.rev !delegation_rows) );
        ( "gc",
          Obj
            [
              ("writes", Int writes);
              ("chain_pinned", Int !pinned_chain);
              ("versions_pinned", Int !pinned_versions);
              ("chain_after_close", Int after_chain);
              ("versions_after_close", Int after_versions);
            ] );
      ]

(* ------------------------------------------------------------------ *)
(* E23: multicore sharded engine — aggregate throughput vs domain
   count under OID-hash partitioning, single-shard vs a 10%
   cross-shard 2PC mix, Zipf-skewed object choice; plus a conformance
   shard: the merged multi-domain history replayed through the oracle.
   Emits BENCH_shard.json.

   Scaling story on few-core hosts: the monolith's costs are
   superlinear in concurrent load — the scheduler's wake sweep visits
   every parked fiber per version bump and the hot locks build long
   queues — so partitioning S in-flight sessions into d independent
   engines (S/d parked fibers each, d-way-split lock queues) wins even
   before true parallelism is available, and the domains add real
   parallelism on multicore. *)

module Shard = Asset_shard.Shard
module Oracle = Asset_obs.Oracle

let domains_cap = ref 0 (* 0 = auto: min(available cores, 8) *)

(* Zipf(theta) over ranks 0..n-1 via the cumulative weight table; rank
   r maps to oid r+1, which [shard_of] then spreads round-robin, so
   consecutive hot ranks land on different shards. *)
let zipf_cdf ~n ~theta =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let zipf_pick rng cdf =
  let u = Rng.float rng in
  let n = Array.length cdf in
  let rec go i = if i >= n - 1 || cdf.(i) >= u then i else go (i + 1) in
  go 0

let e23_shard () =
  let cap =
    if !domains_cap > 0 then !domains_cap else min 8 (Domain.recommended_domain_count ())
  in
  (* One curve point: [waves] waves of [wave] transactions each; the
     wave boundary bounds in-flight sessions identically at every
     domain count, so the monolith and the sharded runs face the same
     offered load.  [mix_pct] percent of submissions are cross-shard
     transfers through the 2PC coordinator (on one domain they
     degenerate to single-participant groups — same protocol, no
     second shard).  While a wave drains, the driver keeps stepping
     the coordinator so verdicts flow and prepared participants
     release their locks promptly. *)
  (* [io_us]: each single-shard session performs one synchronous
     device access of that many microseconds inside the transaction —
     the paper's disk-resident objects (any blocking syscall behaves
     the same).  This is the decisive single-core effect: a
     one-domain cooperative engine blocks EVERY session behind each
     synchronous access, while sharded domains overlap them — the OS
     runs another shard whenever one is down a syscall — so aggregate
     throughput scales with domains even before extra cores are
     available, and multiplies with them. *)
  let run ~domains:d ~mix_pct ~wave ~waves ~objects ~theta ~io_us ~engine_config =
    let sys = Shard.create ~engine_config ~objects ~init:(fun _ -> vi 1_000) ~domains:d () in
    (* Two cross-shard contention controls, both load-bearing under
       Zipf skew: a small in-flight cap (a prepared participant holds
       its hot locks for the whole verdict round-trip, so many
       concurrent groups chain through every shard's hot queue — a
       distributed lock convoy), and ordered dispatch with
       participants listed lowest-object-first (total-order lock
       acquisition: opposite-direction transfers over the same hot
       pair would otherwise deadlock through their prepared
       participants, invisible to any one shard's detector, leaving
       the lock-wait backstop to break them at ~100ms a cycle). *)
    let coord = Shard.Coord.create ~max_inflight:4 ~ordered:true sys in
    let rng = Rng.create (0xE23 + d + (mix_pct * 131)) in
    let cdf = zipf_cdf ~n:objects ~theta in
    let n_singles = ref 0 and n_cross = ref 0 in
    let (), dt =
      time_of (fun () ->
          for _w = 1 to waves do
            for k = 1 to wave do
              let o1 = 1 + zipf_pick rng cdf in
              if mix_pct > 0 && k mod (100 / mix_pct) = 0 then begin
                incr n_cross;
                (* transfer o1 -> o2; force distinct home shards when
                   there is more than one *)
                let o2 =
                  let c = 1 + zipf_pick rng cdf in
                  if d = 1 || Shard.shard_of sys (oid c) <> Shard.shard_of sys (oid o1) then c
                  else 1 + (o1 mod objects)
                in
                let dec eng = E.modify eng (oid o1) (fun v -> Value.incr_int (Option.get v) (-1)) in
                let inc eng = E.modify eng (oid o2) (fun v -> Value.incr_int (Option.get v) 1) in
                if Shard.shard_of sys (oid o1) = Shard.shard_of sys (oid o2) then
                  Shard.Coord.submit coord
                    [ (Shard.shard_of sys (oid o1), fun eng -> dec eng; inc eng) ]
                else
                  let parts =
                    [ (Shard.shard_of sys (oid o1), dec); (Shard.shard_of sys (oid o2), inc) ]
                  in
                  Shard.Coord.submit coord (if o1 <= o2 then parts else List.rev parts)
              end
              else begin
                incr n_singles;
                Shard.submit sys ~max_retries:100 ~shard:(Shard.shard_of sys (oid o1))
                  (fun eng ->
                    E.modify eng (oid o1) (fun v -> Value.incr_int (Option.get v) 1);
                    if io_us > 0 then Unix.sleepf (float_of_int io_us *. 1e-6))
              end
            done;
            while Shard.pending sys > 0 do
              if not (Shard.Coord.try_step coord) then Unix.sleepf 1e-4
            done
          done;
          Shard.Coord.drain coord;
          Shard.drain sys)
    in
    let stats = Shard.stats sys in
    Shard.shutdown sys;
    let gave_up = List.assoc "gave_up" stats in
    let singles_done = !n_singles - gave_up in
    let logical = singles_done + Shard.Coord.committed coord in
    (* conservation: every committed single adds 1, transfers are net
       zero, and an aborted group must leave no partial effect *)
    let total_value = ref 0 in
    for i = 0 to d - 1 do
      Store.iter (E.store (Shard.engine sys i)) (fun _ v -> total_value := !total_value + Value.to_int v)
    done;
    let conserved = !total_value = (objects * 1_000) + singles_done in
    ( logical,
      !n_cross,
      Shard.Coord.committed coord,
      Shard.Coord.aborted coord,
      Shard.Coord.mixed coord,
      gave_up,
      List.assoc "retries" stats,
      conserved,
      dt )
  in
  let points = List.filter (fun d -> d <= cap) [ 1; 2; 4; 8 ] in
  let curve ~tag ~mix_pct ~wave ~waves ~objects ~theta ~io_us ~engine_config =
    let tbl =
      Table.create
        ~title:
          (Printf.sprintf "E23%s: %d txns/wave x %d waves, %d objects, %s, %dus sync IO — %s" tag
             wave waves objects
             (if theta = 0.0 then "uniform" else Printf.sprintf "zipf %.2f" theta)
             io_us
             (if mix_pct = 0 then "single-shard only" else Printf.sprintf "%d%% cross-shard 2PC" mix_pct))
        ~header:
          [ "domains"; "committed"; "x-committed"; "x-aborted"; "mixed"; "gave up"; "conserved"; "ms"; "txns/s"; "vs 1" ]
    in
    let base = ref 0.0 in
    let rows =
      List.map
        (fun d ->
          let logical, _n_cross, xc, xa, xm, gave_up, retries, conserved, dt =
            run ~domains:d ~mix_pct ~wave ~waves ~objects ~theta ~io_us ~engine_config
          in
          let tps = float_of_int logical /. dt in
          if d = 1 then base := tps;
          let speedup = if !base > 0.0 then tps /. !base else 0.0 in
          Table.add_row tbl
            [
              Table.fmt_i d;
              Table.fmt_i logical;
              Table.fmt_i xc;
              Table.fmt_i xa;
              Table.fmt_i xm;
              Table.fmt_i gave_up;
              string_of_bool conserved;
              Table.fmt_f ~digits:1 (dt *. 1000.);
              Table.fmt_f ~digits:0 tps;
              Table.fmt_f ~digits:2 speedup;
            ];
          (d, logical, xc, xa, xm, gave_up, retries, conserved, dt, tps, speedup))
        points
    in
    Table.print tbl;
    check (Printf.sprintf "E23%s: no mixed cross-shard outcome" tag)
      (List.for_all (fun (_, _, _, _, xm, _, _, _, _, _, _) -> xm = 0) rows);
    check (Printf.sprintf "E23%s: conserved at every point" tag)
      (List.for_all (fun (_, _, _, _, _, _, _, conserved, _, _, _) -> conserved) rows);
    (wave, waves, objects, theta, io_us, rows)
  in
  (* E23a: pure single-shard load, uniform over enough objects that
     per-object queues stay shallow (a queue on one object has the
     same depth at every domain count — a single object cannot be
     split — so skew would only mask the scaling; E23b carries the
     skew dimension).  Single-object transactions cannot deadlock, so
     the distributed lock-wait backstop is off for this curve. *)
  let a_cfg = { Shard.default_engine_config with E.lock_wait_timeout_steps = 0 } in
  let single_rows =
    curve ~tag:"a" ~mix_pct:0
      ~wave:(if !smoke then 128 else 512)
      ~waves:(if !smoke then 2 else 8)
      ~objects:(if !smoke then 64 else 512)
      ~theta:0.0
      ~io_us:(if !smoke then 20 else 100)
      ~engine_config:a_cfg
  in
  (* E23b: 10% of submissions are cross-shard 2PC transfers under
     Zipf-skewed object choice; moderate session counts (every verdict
     is a cross-domain round-trip), with the lock-wait backstop armed
     as the distributed-deadlock net — but sized for the verdict
     latency: a prepared participant legitimately holds its (hot)
     locks for a full coordinator round-trip, and a backstop tuned
     for local stalls would time out every session queued behind it
     into fruitless retry storms. *)
  let b_cfg = { Shard.default_engine_config with E.lock_wait_timeout_steps = 5_000 } in
  let mix_rows =
    curve ~tag:"b" ~mix_pct:10
      ~wave:(if !smoke then 64 else 256)
      ~waves:(if !smoke then 2 else 4)
      ~objects:(if !smoke then 32 else 64)
      ~theta:0.99
      ~io_us:(if !smoke then 20 else 100)
      ~engine_config:b_cfg
  in
  (* Conformance shard: a small traced 2-domain mixed run whose merged
     multi-domain history must satisfy the oracle's strict axioms, with
     the coordinator's XGC edges carrying the cross-shard obligation. *)
  let conf_events, conf_xgc, conf_violations =
    let d = 2 in
    let conf_objects = 16 in
    let sys = Shard.create ~trace:true ~objects:conf_objects ~init:(fun _ -> vi 100) ~domains:d () in
    let coord = Shard.Coord.create sys in
    let rng = Rng.create 232323 in
    for k = 1 to 150 do
      if k mod 10 = 0 then begin
        let a = 1 + Rng.int rng conf_objects in
        let b =
          let c = 1 + Rng.int rng conf_objects in
          if Shard.shard_of sys (oid c) <> Shard.shard_of sys (oid a) then c else 1 + (a mod conf_objects)
        in
        Shard.Coord.submit coord
          [
            (Shard.shard_of sys (oid a), fun eng -> E.modify eng (oid a) (fun v -> Value.incr_int (Option.get v) (-1)));
            (Shard.shard_of sys (oid b), fun eng -> E.modify eng (oid b) (fun v -> Value.incr_int (Option.get v) 1));
          ]
      end
      else
        let o = 1 + Rng.int rng conf_objects in
        Shard.submit sys ~shard:(Shard.shard_of sys (oid o))
          (fun eng -> E.modify eng (oid o) (fun v -> Value.incr_int (Option.get v) 1))
    done;
    Shard.Coord.drain coord;
    Shard.drain sys;
    Shard.shutdown sys;
    let merged = Shard.merged_trace sys in
    let xgc =
      List.length
        (List.filter
           (fun (e : Trace.entry) -> match e.ev with Trace.Dep { dtype = "XGC"; _ } -> true | _ -> false)
           merged)
    in
    let violations = Oracle.check_strict_history merged in
    List.iter (fun v -> Format.printf "  %a@." Oracle.pp_violation v) violations;
    (List.length merged, xgc, List.length violations)
  in
  Format.printf "E23 conformance: 2-domain merged history — %d events, %d xgc edges, %d violations@."
    conf_events conf_xgc conf_violations;
  check "E23 conformance: merged history passes the oracle" (conf_violations = 0);
  check "E23 conformance: cross-shard XGC edges recorded" (conf_xgc > 0);
  let curve_json (wave, waves, objects, theta, io_us, rows) =
    Json.(
      Obj
        [
          ("wave", Int wave);
          ("waves", Int waves);
          ("objects", Int objects);
          ("zipf_theta", fixed 2 theta);
          ("io_us", Int io_us);
          ( "points",
            records
              (fun (d, logical, xc, xa, xm, gave_up, retries, conserved, dt, tps, speedup) ->
                [
                  ("domains", Int d);
                  ("committed", Int logical);
                  ("cross_committed", Int xc);
                  ("cross_aborted", Int xa);
                  ("mixed", Int xm);
                  ("gave_up", Int gave_up);
                  ("retries", Int retries);
                  ("conserved", Bool conserved);
                  ("seconds", fixed 4 dt);
                  ("txns_per_s", fixed 0 tps);
                  ("speedup_vs_1", fixed 2 speedup);
                ])
              rows );
        ])
  in
  write_artifact ~name:"shard" ~experiment:"E23-shard"
    Json.
      [
        ("domains_cap", Int cap);
        ("single_shard", curve_json single_rows);
        ("cross_mix", curve_json mix_rows);
        ( "conformance",
          Obj
            [
              ("domains", Int 2);
              ("events", Int conf_events);
              ("xgc_edges", Int conf_xgc);
              ("violations", Int conf_violations);
            ] );
      ]

(* ------------------------------------------------------------------ *)
(* E24: durability at sustained scale — recovery time vs log volume    *)
(* with and without a checkpoint anchor, and the segmented WAL's       *)
(* bounded-log behaviour under checkpoint-driven retirement.  Emits    *)
(* BENCH_recovery.json.                                                *)

let e24_recovery () =
  let n_objects = 256 in
  (* A synthetic history: [n_updates] updates across [n_txns]
     transactions, ~30% losers, an optional checkpoint at the midpoint
     that captures one transaction held open across it, so the ATT
     has real content.  Returns the log and the disk image at crash
     time: the checkpoint's flushed store for anchored logs, zeros
     otherwise. *)
  let build ~n_updates ~ckpt =
    let log = Log.in_memory () in
    let disk = Heap.store () in
    for o = 1 to n_objects do
      Store.write disk (oid o) (vi 0)
    done;
    let rng = Rng.create 29 in
    let per_txn = 10 in
    let n_txns = n_updates / per_txn in
    let mid = max 1 (n_txns / 2) in
    let open_tid = Tid.of_int (n_txns + 1) in
    let base = ref [] in
    for txn = 1 to n_txns do
      let tid = Tid.of_int txn in
      for u = 1 to per_txn do
        let o = 1 + Rng.int rng n_objects in
        let before = Store.read disk (oid o) in
        let after = vi ((txn * 100) + u) in
        ignore (Log.append log (Record.Update { tid; oid = oid o; before; after }));
        Store.write disk (oid o) after
      done;
      if Rng.float rng >= 0.3 then
        ignore (Log.append log (Record.Commit [ tid ]));
      if txn = mid then begin
        (match ckpt with
        | `None -> ()
        | `Fuzzy ->
            (* Updates by a transaction that stays in flight across the
               checkpoint — captured in the ATT, never committed. *)
            let open_updates = ref [] in
            for u = 1 to 3 do
              let o = 1 + Rng.int rng n_objects in
              let before = Store.read disk (oid o) in
              let after = vi (1_000_000 + u) in
              let lsn =
                Log.append log (Record.Update { tid = open_tid; oid = oid o; before; after })
              in
              Store.write disk (oid o) after;
              open_updates :=
                {
                  Record.cu_lsn = lsn;
                  cu_oid = oid o;
                  cu_undo = Record.Ckpt_physical before;
                  cu_after = after;
                }
                :: !open_updates
            done;
            let att_updates = List.rev !open_updates in
            let active = [ { Record.att_tid = open_tid; att_updates } ] in
            let dirty = List.map (fun u -> u.Record.cu_oid) att_updates in
            ignore (Recovery.checkpoint log disk ~active ~dirty));
        base := Store.dump disk
      end
    done;
    let base =
      match ckpt with `None -> List.init n_objects (fun i -> (oid (i + 1), vi 0)) | _ -> !base
    in
    (log, base)
  in
  let store_from base =
    let s = Heap.store () in
    List.iter (fun (o, v) -> Store.write s o v) base;
    s
  in
  let sizes = if !smoke then [ 2_000; 5_000 ] else [ 10_000; 50_000; 200_000 ] in
  let t =
    Table.create ~title:"E24: recovery time vs log volume and checkpoint anchor"
      ~header:[ "updates"; "ckpt"; "redone"; "ms" ]
  in
  let rows =
    List.concat_map
      (fun n_updates ->
        List.map
          (fun (ckpt, ckpt_name) ->
            let log, base = build ~n_updates ~ckpt in
            let report, dt = time_of (fun () -> Recovery.recover log (store_from base)) in
            Table.add_row t
              [
                Table.fmt_i n_updates;
                ckpt_name;
                Table.fmt_i report.Recovery.updates_redone;
                Table.fmt_f ~digits:2 (dt *. 1000.);
              ];
            (n_updates, ckpt_name, report.Recovery.updates_redone, dt))
          [ (`None, "none"); (`Fuzzy, "fuzzy") ])
      sizes
  in
  Table.print t;
  (* Bounded-log behaviour: sustained transfer rounds over one
     segmented WAL with the commit-path checkpoint trigger on. *)
  let round_counts = if !smoke then [ 4 ] else [ 8; 16 ] in
  let t2 =
    Table.create ~title:"E24: segment retirement under sustained writes"
      ~header:[ "rounds"; "txns"; "ckpts"; "segs created"; "retired"; "live"; "bounded" ]
  in
  let retirement =
    List.map
      (fun rounds ->
        let s = Torture.sustained_run ~rounds { Torture.default_spec with segment_bytes = 1024 } in
        Table.add_row t2
          [
            Table.fmt_i s.Torture.s_rounds;
            Table.fmt_i s.Torture.s_txns;
            Table.fmt_i s.Torture.s_checkpoints;
            Table.fmt_i s.Torture.s_segments_created;
            Table.fmt_i s.Torture.s_segments_retired;
            Table.fmt_i s.Torture.s_segments_live;
            (if s.Torture.s_failures = [] then "yes" else "NO");
          ];
        s)
      round_counts
  in
  Table.print t2;
  let bounded_ok = List.for_all (fun s -> s.Torture.s_failures = []) retirement in
  check "E24 retirement: log stays bounded" bounded_ok;
  write_artifact ~name:"recovery" ~experiment:"E24-recovery"
    Json.
      [
        ( "recovery_time",
          records
            (fun (n, ckpt, redone, dt) ->
              [ ("log_updates", Int n); ("ckpt", Str ckpt); ("updates_redone", Int redone); ("seconds", fixed 6 dt) ])
            rows );
        ( "retirement",
          records
            (fun (s : Torture.sustained) ->
              [
                ("rounds", Int s.s_rounds);
                ("txns", Int s.s_txns);
                ("checkpoints", Int s.s_checkpoints);
                ("segments_created", Int s.s_segments_created);
                ("segments_retired", Int s.s_segments_retired);
                ("segments_live", Int s.s_segments_live);
                ("bounded", Bool (s.s_failures = []));
              ])
            retirement );
      ]

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* E25: the workload families (PR 9) — the TPC-C-flavoured multi-class
   mix across engine configurations (plain-2PL RMW baseline, semantic
   escrow/queue ops, semantic + MVCC stock-checks, 2-domain sharded
   2PC) with per-class commit/abort/retry counts, plus the agentic
   tool-call saga's compensation economics.  Emits BENCH_oltp.json.
   No latency: all transactions launch at once, so a per-transaction
   time would be mostly queueing; perfbench's mix-* workloads measure
   latency from submission to durable commit ack.  Correctness —
   conservation, oracle conformance — is pinned by
   test/test_workloads.ml; this reports the cost. *)

module Oltp = Asset_workload.Oltp
module Agentic = Asset_workload.Agentic

let e25_oltp () =
  let txns = if !smoke then 60 else 600 in
  let cfg = { Oltp.default_config with Oltp.accounts = 16; items = 32 } in
  let balance0 = 1_000 and stock0 = 1_000 in
  let seed = 7 in
  (* One single-engine configuration: run the mix, return per-class
     rows and the config summary. *)
  let run_single ~label ~snapshot_readers ~rmw =
    let db = fresh_db ~objects:0 () in
    Oltp.setup (E.store db) cfg ~balance0 ~stock0;
    let stats = ref [] in
    let (), dt =
      time_of (fun () ->
          R.run_exn db (fun () ->
              stats := Oltp.run_mix ~snapshot_readers ~rmw db ~seed ~txns cfg))
    in
    let conserved =
      List.for_all snd (Oltp.check_conservation (E.store db) cfg ~balance0 ~stock0)
    in
    let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 !stats in
    let gave_up = sum (fun s -> s.Oltp.s_gave_up) in
    check (Printf.sprintf "E25 %s: committed + gave up = txns" label)
      (sum (fun s -> s.Oltp.s_committed) + gave_up = txns);
    check (Printf.sprintf "E25 %s: engine retries/gave_up = driver sums" label)
      (stat db "retries" = sum (fun s -> s.Oltp.s_retries) && stat db "gave_up" = gave_up);
    let rows =
      List.map
        (fun (k, (s : Oltp.class_stats)) ->
          ( label,
            Oltp.klass_name k,
            s.Oltp.s_committed,
            s.Oltp.s_aborted,
            s.Oltp.s_retries,
            s.Oltp.s_gave_up ))
        !stats
    in
    (rows, (label, dt, conserved))
  in
  (* The sharded configuration: each generated transaction becomes a
     cross-shard 2PC group, submitted and drained one at a time. *)
  let run_sharded ~label ~domains =
    let init o =
      if o = 3 || o = 4 then Value.of_queue []
      else if o >= 1000 && o < 1000 + cfg.Oltp.accounts then vi balance0
      else if o >= 2000 && o < 2000 + cfg.Oltp.items then vi stock0
      else vi 0
    in
    let sys = Shard.create ~domains ~objects:(2000 + cfg.Oltp.items) ~init () in
    let coord = Shard.Coord.create sys in
    let acc = List.map (fun k -> (k, (ref 0, ref 0))) Oltp.all_klasses in
    let (), dt =
      time_of (fun () ->
          for j = 0 to txns - 1 do
            let rng = Rng.create (seed + (j * 104729)) in
            let txn = Oltp.gen_txn ~rng cfg in
            let by_shard = Hashtbl.create 4 in
            List.iter
              (fun (o, op) ->
                let s = Shard.shard_of sys o in
                let prev = try Hashtbl.find by_shard s with Not_found -> [] in
                Hashtbl.replace by_shard s ((o, op) :: prev))
              (Oltp.ops_of txn);
            let parts =
              Hashtbl.fold
                (fun s ops l -> (s, fun eng -> List.iter (Oltp.apply eng) (List.rev ops)) :: l)
                by_shard []
            in
            let committed, aborted = List.assoc txn.Oltp.t_klass acc in
            let before = Shard.Coord.committed coord in
            Shard.Coord.submit coord parts;
            Shard.Coord.drain coord;
            if Shard.Coord.committed coord > before then incr committed else incr aborted
          done)
    in
    Shard.shutdown sys;
    let mixed = Shard.Coord.mixed coord in
    let read_across f =
      let t = ref 0 in
      for s = 0 to domains - 1 do
        t := !t + f (E.store (Shard.engine sys s))
      done;
      !t
    in
    let cell st o = match Store.read st o with Some v -> Value.to_int v | None -> 0 in
    let sum_cells n mk st =
      let t = ref 0 in
      for i = 0 to n - 1 do
        t := !t + cell st (mk i)
      done;
      !t
    in
    let money =
      read_across (sum_cells cfg.Oltp.accounts Oltp.account)
      + read_across (fun st -> cell st Oltp.ledger)
    in
    let goods =
      read_across (sum_cells cfg.Oltp.items Oltp.stock)
      + read_across (fun st -> cell st Oltp.reserved)
      + read_across (fun st -> cell st Oltp.delivered)
    in
    let conserved =
      mixed = 0
      && money = cfg.Oltp.accounts * balance0
      && goods = cfg.Oltp.items * stock0
    in
    let rows =
      List.map
        (fun (k, (committed, aborted)) ->
          (label, Oltp.klass_name k, !committed, !aborted, 0, 0))
        acc
    in
    (rows, (label, dt, conserved))
  in
  let singles =
    [
      run_single ~label:"plain-rmw" ~snapshot_readers:false ~rmw:true;
      run_single ~label:"semantic" ~snapshot_readers:false ~rmw:false;
      run_single ~label:"semantic+mvcc" ~snapshot_readers:true ~rmw:false;
    ]
  in
  let sharded = run_sharded ~label:"sharded-2pc-2dom" ~domains:2 in
  let all = singles @ [ sharded ] in
  let rows = List.concat_map fst all in
  let configs = List.map snd all in
  (* The agentic saga economics on the default engine. *)
  let agents = if !smoke then 8 else 48 in
  let a_docs = 8 and a_budget0 = 100_000 in
  let a_db = fresh_db ~objects:0 () in
  Agentic.setup (E.store a_db) ~docs:a_docs ~budget0:a_budget0;
  let outcomes = ref [] in
  let (), a_dt =
    time_of (fun () ->
        R.run_exn a_db (fun () ->
            outcomes := Agentic.run_agents a_db ~seed ~agents ~docs:a_docs))
  in
  let os = !outcomes in
  let a_conserved =
    (match Store.read (E.store a_db) Agentic.budget with
    | Some v -> Value.to_int v = a_budget0 - Agentic.total_spend os
    | None -> false)
    && match Store.read (E.store a_db) Agentic.audit with
       | Some v -> List.length (Value.to_queue v) = Agentic.total_audit os
       | None -> false
  in
  let sum f = List.fold_left (fun a o -> a + f o) 0 os in
  let t =
    Table.create ~title:"E25: OLTP mix across engine configurations"
      ~header:[ "config"; "class"; "committed"; "aborted"; "retries"; "gave up" ]
  in
  List.iter
    (fun (config, klass, committed, aborted, retries, gave_up) ->
      Table.add_row t
        [
          config;
          klass;
          string_of_int committed;
          string_of_int aborted;
          string_of_int retries;
          string_of_int gave_up;
        ])
    rows;
  Table.print t;
  let t2 =
    Table.create ~title:"E25: agentic saga economics"
      ~header:[ "agents"; "failed plans"; "steps"; "compensations"; "retries"; "gave up"; "conserved" ]
  in
  Table.add_row t2
    [
      string_of_int agents;
      string_of_int (sum (fun o -> if o.Agentic.o_failed then 1 else 0));
      string_of_int (sum (fun o -> o.Agentic.o_committed));
      string_of_int (sum (fun o -> o.Agentic.o_compensated));
      string_of_int (sum (fun o -> o.Agentic.o_retries));
      string_of_int (sum (fun o -> o.Agentic.o_gave_up));
      string_of_bool a_conserved;
    ];
  Table.print t2;
  check
    (Printf.sprintf "E25 conservation: %d engine configs + agentic saga" (List.length configs))
    (List.for_all (fun (_, _, c) -> c) configs && a_conserved);
  write_artifact ~name:"oltp" ~experiment:"E25-oltp"
    Json.
      [
        ( "mix",
          records
            (fun (config, klass, committed, aborted, retries, gave_up) ->
              [
                ("config", Str config);
                ("class", Str klass);
                ("committed", Int committed);
                ("aborted", Int aborted);
                ("retries", Int retries);
                ("gave_up", Int gave_up);
              ])
            rows );
        ( "configs",
          records
            (fun (label, dt, conserved) ->
              [
                ("config", Str label);
                ("txns", Int txns);
                ("seconds", fixed 6 dt);
                ("txn_per_s", fixed 1 (float_of_int txns /. dt));
                ("conserved", Bool conserved);
              ])
            configs );
        ( "agentic",
          Obj
            [
              ("agents", Int agents);
              ("plans_failed", Int (sum (fun o -> if o.Agentic.o_failed then 1 else 0)));
              ("steps_committed", Int (sum (fun o -> o.Agentic.o_committed)));
              ("compensations", Int (sum (fun o -> o.Agentic.o_compensated)));
              ("retries", Int (sum (fun o -> o.Agentic.o_retries)));
              ("gave_up", Int (sum (fun o -> o.Agentic.o_gave_up)));
              ("conserved", Bool a_conserved);
              ("seconds", fixed 6 a_dt);
            ] );
      ]

let experiments =
  [
    ("f1", fig1);
    ("e1", e1_primitives);
    ("e2", e2_lockmgr);
    ("e3", e3_permit);
    ("e4", e4_delegate);
    ("e5", e5_nested);
    ("e6", e6_saga);
    ("e7", e7_groupcommit);
    ("e8", e8_cursor);
    ("e10", e10_workflow);
    ("e11", e11_models);
    ("e12", e12_deps);
    ("e14", e14_ablations);
    ("e15", e15_workspace);
    ("e17", e17_hotpath);
    ("hotpath", e17_hotpath);
    ("e18", e18_lockpath);
    ("lockpath", e18_lockpath);
    ("e19", e19_faults);
    ("faults", e19_faults);
    ("e20", e20_obs);
    ("obs", e20_obs);
    ("e21", e21_check);
    ("check", e21_check);
    ("e22", e22_mvcc);
    ("mvcc", e22_mvcc);
    ("e23", e23_shard);
    ("shard", e23_shard);
    ("e24", e24_recovery);
    ("recovery", e24_recovery);
    ("e25", e25_oltp);
    ("oltp", e25_oltp);
  ]

let () =
  let only = ref [] in
  let spec =
    [
      ( "--only",
        Arg.String
          (fun s -> only := !only @ String.split_on_char ',' (String.lowercase_ascii s)),
        "KEYS  comma-separated experiment keys (f1, e1..e8, e10..e12, e14, e15, e17..e25, hotpath, lockpath, faults, obs, check, mvcc, shard, recovery, oltp); default: all" );
      ("--smoke", Arg.Set smoke, "  tiny quotas for CI smoke runs");
      ( "--domains",
        Arg.Set_int domains_cap,
        "N  cap the E23 domain-count curve at N (default: available cores, capped at 8)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument: " ^ a)))
    "bench/main.exe [--only e1,hotpath,lockpath] [--smoke] [--domains N]";
  let selected =
    match !only with
    | [] ->
        (* the eNN keys cover the aliases *)
        List.filter
          (fun (k, _) ->
            k <> "hotpath" && k <> "lockpath" && k <> "faults" && k <> "obs" && k <> "check"
            && k <> "mvcc" && k <> "shard" && k <> "recovery" && k <> "oltp")
          experiments
    | keys ->
        List.map
          (fun k ->
            match List.assoc_opt k experiments with
            | Some f -> (k, f)
            | None -> failwith ("unknown experiment: " ^ k))
          keys
  in
  Format.printf "ASSET benchmark harness — experiments F1, E1-E8, E10-E12, E14, E15, E17-E25 (see DESIGN.md)%s@."
    (if !smoke then " [smoke]" else "");
  List.iter (fun (_, f) -> f ()) selected;
  Format.printf "@.done.@.";
  if !failed <> [] then begin
    Format.eprintf "failed checks:@.%a@." (Format.pp_print_list Format.pp_print_string) (List.rev !failed);
    exit 1
  end
