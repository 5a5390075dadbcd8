(* asset_demo: a small CLI for poking at the ASSET engine.

   Subcommands:
     workload  — run a synthetic read/write workload and print metrics
     bank      — run the bank-transfer workload and check conservation
     saga      — run a saga chain with an optional injected failure
     trip      — run the appendix travel workflow with chosen availability
     trace     — run a tiny contended schedule and dump its event trace

   Examples:
     dune exec bin/asset_demo.exe -- workload --txns 64 --theta 0.9
     dune exec bin/asset_demo.exe -- bank --accounts 32 --txns 200
     dune exec bin/asset_demo.exe -- saga --steps 8 --fail-at 5
     dune exec bin/asset_demo.exe -- trip --unavailable Delta,Equator
     dune exec bin/asset_demo.exe -- trace --seed 3 *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Trace = Asset_obs.Trace
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap = Asset_storage.Heap_store
module Workload = Asset_workload.Workload
module Bank = Asset_workload.Bank
open Asset_models
open Cmdliner

let oid = Oid.of_int
let vi = Value.of_int

let print_stats db =
  Format.printf "@.engine statistics:@.%a" E.pp_stats db

(* ------------------------------------------------------------------ *)
(* workload                                                            *)

let workload_cmd =
  let run txns objects ops write_pct theta seed rmw =
    let spec =
      {
        Workload.n_objects = objects;
        n_txns = txns;
        ops_per_txn = ops;
        write_ratio = float_of_int write_pct /. 100.;
        theta;
        seed;
        yield_between_ops = true;
        read_modify_write = rmw;
      }
    in
    let m = Workload.run spec in
    Format.printf "%a@." Workload.pp_metrics m
  in
  let txns = Arg.(value & opt int 64 & info [ "txns" ] ~doc:"Number of transactions.") in
  let objects = Arg.(value & opt int 256 & info [ "objects" ] ~doc:"Keyspace size.") in
  let ops = Arg.(value & opt int 8 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let write_pct = Arg.(value & opt int 50 & info [ "write-pct" ] ~doc:"Write percentage.") in
  let theta = Arg.(value & opt float 0.0 & info [ "theta" ] ~doc:"Zipf skew.") in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Workload seed.") in
  let rmw =
    Arg.(value & flag & info [ "rmw" ] ~doc:"Read-modify-write updates (lock upgrades).")
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Run a synthetic read/write workload")
    Term.(const run $ txns $ objects $ ops $ write_pct $ theta $ seed $ rmw)

(* ------------------------------------------------------------------ *)
(* bank                                                                *)

let bank_cmd =
  let run accounts txns =
    let store = Heap.store () in
    Bank.setup store ~accounts ~balance:1_000;
    let db = E.create store in
    R.run_exn db (fun () ->
        let committed, aborted = Bank.run_transfers db ~accounts ~n_txns:txns in
        Format.printf "committed=%d deadlock-victims=%d@." committed aborted);
    let total = Bank.total db ~accounts in
    Format.printf "total=%d expected=%d %s@." total (accounts * 1_000)
      (if total = accounts * 1_000 then "(conserved)" else "(VIOLATION!)");
    print_stats db
  in
  let accounts = Arg.(value & opt int 32 & info [ "accounts" ] ~doc:"Number of accounts.") in
  let txns = Arg.(value & opt int 200 & info [ "txns" ] ~doc:"Number of transfers.") in
  Cmd.v
    (Cmd.info "bank" ~doc:"Run contended bank transfers and verify conservation")
    Term.(const run $ accounts $ txns)

(* ------------------------------------------------------------------ *)
(* saga                                                                *)

let saga_cmd =
  let run steps fail_at =
    let store = Heap.store () in
    Heap.populate store ~n:(steps + 1) ~value:(fun _ -> vi 0);
    let db = E.create store in
    R.run_exn db (fun () ->
        let step i =
          if i = steps - 1 && fail_at < 0 then
            Saga.step ~label:(Printf.sprintf "t%d" (i + 1)) (fun () ->
                E.write db (oid (i + 1)) (vi 1))
          else
            Saga.step
              ~label:(Printf.sprintf "t%d" (i + 1))
              ~compensate:(fun () ->
                Format.printf "  compensating t%d@." (i + 1);
                E.write db (oid (i + 1)) (vi 0))
              (fun () ->
                if i = fail_at then failwith "injected failure";
                Format.printf "  committing t%d@." (i + 1);
                E.write db (oid (i + 1)) (vi 1))
        in
        match Saga.run db (List.init steps step) with
        | Saga.Committed -> Format.printf "saga committed@."
        | Saga.Rolled_back { failed_step; compensated } ->
            Format.printf "saga rolled back at step %d (%d compensations)@." failed_step
              compensated);
    print_stats db
  in
  let steps = Arg.(value & opt int 5 & info [ "steps" ] ~doc:"Chain length.") in
  let fail_at =
    Arg.(value & opt int (-1) & info [ "fail-at" ] ~doc:"0-based step to fail (-1 = none).")
  in
  Cmd.v (Cmd.info "saga" ~doc:"Run a saga chain") Term.(const run $ steps $ fail_at)

(* ------------------------------------------------------------------ *)
(* trip                                                                *)

let trip_cmd =
  let run unavailable =
    let unavailable = String.split_on_char ',' unavailable |> List.filter (fun s -> s <> "") in
    let vendors = [ "Delta"; "United"; "American"; "Equator"; "National"; "Avis" ] in
    let store = Heap.store () in
    Heap.populate store ~n:8 ~value:(fun _ -> vi 0);
    let db = E.create store in
    R.run_exn db (fun () ->
        let mk i v =
          Workflow.task v
            ~compensate:(fun () -> E.write db (oid (i + 1)) (vi 0))
            (fun () ->
              if List.mem v unavailable then failwith (v ^ " unavailable");
              E.write db (oid (i + 1)) (vi 1))
        in
        let wf =
          Workflow.(
            Seq
              [
                Alternatives [ Task (mk 0 "Delta"); Task (mk 1 "United"); Task (mk 2 "American") ];
                Task (mk 3 "Equator");
                Optional (Race [ mk 4 "National"; mk 5 "Avis" ]);
              ])
        in
        let o = Workflow.run db wf in
        Format.printf "activity %s@." (if o.Workflow.success then "SUCCEEDED" else "FAILED");
        List.iter (fun e -> Format.printf "  %a@." Workflow.pp_event e) o.Workflow.events;
        List.iteri
          (fun i v ->
            if Value.to_int (Option.value (Store.read (E.store db) (oid (i + 1))) ~default:(vi 0)) = 1
            then Format.printf "booked: %s@." v)
          vendors)
  in
  let unavailable =
    Arg.(
      value & opt string ""
      & info [ "unavailable" ] ~doc:"Comma-separated unavailable vendors (e.g. Delta,Equator).")
  in
  Cmd.v
    (Cmd.info "trip" ~doc:"Run the appendix travel workflow")
    Term.(const run $ unavailable)

(* ------------------------------------------------------------------ *)
(* trace                                                               *)

let trace_cmd =
  let run seed =
    let store = Heap.store () in
    Heap.populate store ~n:4 ~value:(fun _ -> vi 0);
    let db = E.create store in
    let policy = if seed = 0 then Sched.Fifo else Sched.Random_seeded seed in
    let s = Sched.create ~policy () in
    E.attach_scheduler db s;
    let (), entries =
      Trace.with_memory (fun () ->
          ignore
            (Sched.spawn s ~label:"main" (fun () ->
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
                       E.write db (oid 3) (vi 2))
                 in
                 ignore (E.begin_ db t1);
                 ignore (E.begin_ db t2);
                 ignore (E.commit db t1);
                 ignore (E.commit db t2)));
          try Sched.run s with Sched.Deadlock _ -> Format.printf "(deadlocked)@.")
    in
    Format.printf "event trace (policy=%s):@." (if seed = 0 then "fifo" else "random");
    List.iter (fun e -> Format.printf "  %a@." Trace.pp_entry e) entries;
    print_stats db
  in
  let seed =
    Arg.(value & opt int 0 & info [ "seed" ] ~doc:"Schedule seed (0 = FIFO policy).")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Dump the event trace of a small contended schedule")
    Term.(const run $ seed)

(* ------------------------------------------------------------------ *)
(* recover                                                             *)

let recover_cmd =
  let run dir txns =
    let wal = Filename.concat dir "asset_demo.wal" in
    let store = Asset_storage.Heap_store.store () in
    for i = 1 to 8 do
      Store.write store (oid i) (vi 0)
    done;
    let log = Asset_wal.Log.create_dir wal in
    let db = E.create ~log store in
    (* The objects were written outside the log: a checkpoint logs
       their image, so recovery can rebuild them. *)
    ignore (E.checkpoint db);
    (* Run a mix of committed, aborted and in-flight transactions, then
       "crash": the store is lost, only the log survives. *)
    R.run_exn db (fun () ->
        for i = 1 to txns do
          ignore
            (Atomic.run db (fun () ->
                 E.write db (oid ((i mod 8) + 1)) (vi i);
                 if i mod 5 = 0 then failwith "injected abort"))
        done;
        (* One in-flight transaction: completed, never committed. *)
        let t = E.initiate db (fun () -> E.write db (oid 1) (vi 999_999)) in
        ignore (E.begin_ db t);
        ignore (E.wait db t));
    Asset_wal.Log.force log;
    Asset_wal.Log.close log;
    Format.printf "crashed: object cache dropped, rebuilding it from %s@." wal;
    let recovered = Asset_wal.Log.load_dir wal in
    let store = Asset_storage.Heap_store.store () in
    let report = Asset_wal.Recovery.recover recovered store in
    Format.printf "%a@." Asset_wal.Recovery.pp_report report;
    for i = 1 to 8 do
      Format.printf "  ob%d = %d@." i
        (Value.to_int (Option.value (Store.read store (oid i)) ~default:(vi 0)))
    done;
    Asset_wal.Log.close recovered;
    Asset_wal.Log.remove_dir wal
  in
  let dir =
    Arg.(value & opt string (Filename.get_temp_dir_name ()) & info [ "dir" ] ~doc:"Scratch directory.")
  in
  let txns = Arg.(value & opt int 20 & info [ "txns" ] ~doc:"Transactions before the crash.") in
  Cmd.v
    (Cmd.info "recover" ~doc:"Run transactions, crash, and recover from the write-ahead log")
    Term.(const run $ dir $ txns)

let () =
  let info = Cmd.info "asset_demo" ~doc:"Drive the ASSET extended-transaction engine" in
  exit (Cmd.eval (Cmd.group info [ workload_cmd; bank_cmd; saga_cmd; trip_cmd; trace_cmd; recover_cmd ]))
