(* Conformance and property tests for the two workload families
   (E25's correctness side): the agentic tool-call layer
   (lib/workload/agentic.ml) and the TPC-C-flavoured OLTP mix
   (lib/workload/oltp.ml).

   Both families run over seeded random schedules, clean and with 8%
   injected transient faults, on the single-domain engine (plain,
   MVCC snapshot readers, and lock-timeout configs) and on the
   2-domain sharded engine (OLTP as genuine cross-shard 2PC groups;
   the agentic saga as per-step cross-shard transactions, since
   delegation and EXC dependencies are engine-local by design).  Each
   run is judged three ways: the oracle's axiom bundles over the
   recorded history, the families' own conservation laws read straight
   from the store, and the construct contracts (compensation pairs,
   EXC exclusivity, delegation edges) returned by the runners.

   Seed policy mirrors test_conformance: WORKLOAD_SEEDS runs per case
   (default 200), WORKLOAD_SEED=<n> pins a single seed for
   reproduction:  WORKLOAD_SEED=1234 dune exec test/test_workloads.exe *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Rng = Asset_util.Rng
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Fault = Asset_fault.Fault
module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle
module Agentic = Asset_workload.Agentic
module Oltp = Asset_workload.Oltp
module Workload = Asset_workload.Workload
module Shard = Asset_shard.Shard

let env_int name default =
  match Sys.getenv_opt name with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> default)
  | None -> default

let pinned = Option.bind (Sys.getenv_opt "WORKLOAD_SEED") int_of_string_opt
let n_seeds = match pinned with Some _ -> 1 | None -> env_int "WORKLOAD_SEEDS" 200
let base_seed = match pinned with Some s -> s | None -> env_int "WORKLOAD_BASE_SEED" 1

let repro seed =
  Printf.sprintf "reproduce: WORKLOAD_SEED=%d dune exec test/test_workloads.exe" seed

let each_seed f =
  for i = 0 to n_seeds - 1 do
    f (base_seed + i)
  done

let fail_violations ~ctx seed vs =
  if vs <> [] then
    Alcotest.failf "%s seed %d (%s): %d violation(s):@\n%s" ctx seed (repro seed)
      (List.length vs)
      (String.concat "\n" (List.map (Format.asprintf "%a" Oracle.pp_violation) vs))

let read_int store oid =
  match Store.read store oid with Some v -> Value.to_int v | None -> 0

let read_queue_len store oid =
  match Store.read store oid with Some v -> List.length (Value.to_queue v) | None -> 0

(* The EXC-exclusivity contract check: within each alternates group,
   at most one transaction may appear in the committed projection. *)
let check_exclusive ~groups entries =
  let committed = Oracle.committed entries in
  List.concat_map
    (fun g ->
      let n = List.length (List.filter (fun t -> List.exists (Tid.equal t) committed) g) in
      if n <= 1 then []
      else
        [ { Oracle.check = "exclusive-alternates"; detail = Printf.sprintf "%d committed" n } ])
    groups

(* ------------------------------------------------------------------ *)
(* Agentic family, single engine.                                      *)

let agentic_budget0 = 400
let agentic_docs = 4
let agentic_agents = 4

type agentic_run = {
  a_outcomes : Agentic.outcome list;
  a_entries : Trace.entry list;
  a_store : Store.t;
}

let run_agentic ?(config = E.default_config) ?plans ~faulted seed =
  Fault.reset_all ();
  if faulted then
    Fault.arm Agentic.site_tool (Fault.Fail_prob (0.08, Rng.create (seed lxor 0x5eed)));
  let outcomes = ref [] in
  let db_ref = ref None in
  let entries =
    Fun.protect ~finally:Fault.reset_all (fun () ->
        match
          Trace.with_memory (fun () ->
              let db =
                R.with_fresh_db ~config ~objects:0 ~max_steps:4_000_000
                  ~policy:(Sched.Random_seeded seed) (fun db ->
                    Agentic.setup (E.store db) ~docs:agentic_docs ~budget0:agentic_budget0;
                    match plans with
                    | None ->
                        outcomes :=
                          Agentic.run_agents db ~seed ~agents:agentic_agents ~docs:agentic_docs
                    | Some mk ->
                        let plans = mk seed in
                        let cells = Array.make (List.length plans) None in
                        let done_ = ref 0 in
                        List.iteri
                          (fun i (plan : Agentic.plan) ->
                            let rng = Rng.create (seed + (i * 7919)) in
                            E.spawn db ~label:(Printf.sprintf "agent-%d" i) (fun () ->
                                cells.(i) <- Some (Agentic.run_plan ~rng db plan);
                                incr done_))
                          plans;
                        Sched.wait_until ~reason:"agents-done" (fun () ->
                            !done_ >= List.length plans);
                        outcomes := Array.to_list cells |> List.filter_map Fun.id)
              in
              db_ref := Some db)
        with
        | (), entries -> entries
        | exception exn ->
            Alcotest.failf "agentic seed %d%s (%s): raised %s" seed
              (if faulted then " (faulted)" else "")
              (repro seed) (Printexc.to_string exn))
  in
  let db = Option.get !db_ref in
  { a_outcomes = !outcomes; a_entries = entries; a_store = E.store db }

let check_agentic ~ctx seed (r : agentic_run) =
  (* Conservation laws, straight from the store. *)
  let spend = Agentic.total_spend r.a_outcomes in
  let budget_now = read_int r.a_store Agentic.budget in
  if budget_now <> agentic_budget0 - spend then
    Alcotest.failf "%s seed %d (%s): budget %d, outcomes say %d" ctx seed (repro seed)
      budget_now (agentic_budget0 - spend);
  let audit_len = read_queue_len r.a_store Agentic.audit in
  let audit_expect = Agentic.total_audit r.a_outcomes in
  if audit_len <> audit_expect then
    Alcotest.failf "%s seed %d (%s): audit %d items, outcomes say %d" ctx seed (repro seed)
      audit_len audit_expect;
  (* Oracle bundles plus the construct contracts.  Compensation order
     is a per-saga law — independent agents' rollbacks interleave
     freely — so each outcome's pairs are checked separately;
     exclusivity groups are self-contained and can be merged. *)
  let contract =
    Agentic.merge_contracts (List.map (fun o -> o.Agentic.o_contract) r.a_outcomes)
  in
  fail_violations ~ctx seed
    (Oracle.check_cooperative_history r.a_entries
    @ List.concat_map
        (fun (o : Agentic.outcome) ->
          Oracle.check_compensation_order ~pairs:o.Agentic.o_contract.Agentic.comp_pairs
            r.a_entries)
        r.a_outcomes
    @ check_exclusive ~groups:contract.Agentic.exclusive r.a_entries)

let test_agentic_conformance ~faulted () =
  each_seed (fun seed ->
      let ctx = if faulted then "agentic(faulted)" else "agentic" in
      check_agentic ~ctx seed (run_agentic ~faulted seed))

(* Timeliness variant: deadlock detection off, lock-wait timeout on —
   every stall surfaces as a typed Lock_timeout that the runner's
   retry loop must absorb. *)
let test_agentic_timeout_config () =
  let config =
    { E.default_config with deadlock_detection = false; lock_wait_timeout_steps = 400 }
  in
  each_seed (fun seed ->
      check_agentic ~ctx:"agentic(timeout)" seed (run_agentic ~config ~faulted:false seed))

(* ------------------------------------------------------------------ *)
(* Agentic property tests (satellite 3).                               *)

(* Saga compensation ordering: force failing plans, then check the
   committed compensations run in reverse component order — via the
   oracle — and that every committed-prefix step of a failed plan
   either compensated or gave up trying. *)
let test_prop_compensation_order () =
  let plans seed =
    let rng = Rng.create (seed lxor 0xc0ffee) in
    List.init 3 (fun agent ->
        let p = Agentic.gen_plan ~rng ~docs:agentic_docs ~agent in
        (* Append a failing call so every run exercises rollback of a
           nonempty prefix (Gather steps ignore fail_at, so pointing it
           at a random existing step would not guarantee a failure). *)
        {
          p with
          Agentic.steps =
            p.Agentic.steps
            @ [ Agentic.Call { tool = Printf.sprintf "a%d.fail" agent; cost = 1; d = 0 } ];
          fail_at = Some (List.length p.Agentic.steps);
        })
  in
  let exercised = ref 0 in
  each_seed (fun seed ->
      let r = run_agentic ~plans ~faulted:false seed in
      check_agentic ~ctx:"prop-compensation" seed r;
      List.iter
        (fun (o : Agentic.outcome) ->
          if not o.Agentic.o_failed then
            Alcotest.failf "prop-compensation seed %d (%s): plan did not fail" seed
              (repro seed);
          exercised := !exercised + List.length o.Agentic.o_contract.Agentic.comp_pairs)
        r.a_outcomes);
  Alcotest.(check bool) "compensations actually exercised" true (!exercised > 0)

(* Contingent-alternate exclusivity: speculation-only plans; in every
   schedule exactly one alternative of a successful speculation
   commits, and never more than one whatever happened. *)
let test_prop_exclusivity () =
  let plans seed =
    let rng = Rng.create (seed lxor 0xe4c) in
    List.init 3 (fun agent ->
        let steps =
          List.init
            (1 + Rng.int rng 2)
            (fun i ->
              let alts = 2 + Rng.int rng 2 in
              Agentic.Speculate
                {
                  tool = Printf.sprintf "a%d.s%d.spec" agent i;
                  costs = List.init alts (fun _ -> 1 + Rng.int rng 8);
                  d = Rng.int rng agentic_docs;
                  winner = Rng.int rng alts;
                })
        in
        { Agentic.agent; steps; fail_at = None })
  in
  let groups_seen = ref 0 in
  each_seed (fun seed ->
      let r = run_agentic ~plans ~faulted:false seed in
      check_agentic ~ctx:"prop-exclusivity" seed r;
      let committed = Oracle.committed r.a_entries in
      List.iter
        (fun (o : Agentic.outcome) ->
          List.iter
            (fun g ->
              incr groups_seen;
              let n =
                List.length
                  (List.filter (fun t -> List.exists (Tid.equal t) committed) g)
              in
              if n > 1 then
                Alcotest.failf "prop-exclusivity seed %d (%s): %d alternates committed"
                  seed (repro seed) n)
            o.Agentic.o_contract.Agentic.exclusive;
          (* A clean speculation-only plan must land every step. *)
          if not o.Agentic.o_failed && o.Agentic.o_gave_up = 0 then
            if o.Agentic.o_committed <> List.length o.Agentic.o_contract.Agentic.exclusive
            then
              Alcotest.failf "prop-exclusivity seed %d (%s): %d committed, %d groups" seed
                (repro seed) o.Agentic.o_committed
                (List.length o.Agentic.o_contract.Agentic.exclusive))
        r.a_outcomes);
  Alcotest.(check bool) "alternate groups exercised" true (!groups_seen > 0)

(* Delegation re-attribution: handoff-only plans; the child's escrow
   reservation must be committed by the adopting transaction — the
   budget drops by exactly the committed handoffs' costs, and every
   successful handoff records a delegation edge. *)
let test_prop_delegation_escrow () =
  let plans seed =
    let rng = Rng.create (seed lxor 0xde1e) in
    List.init 3 (fun agent ->
        let steps =
          List.init
            (1 + Rng.int rng 2)
            (fun i ->
              Agentic.Handoff
                {
                  tool = Printf.sprintf "a%d.s%d.handoff" agent i;
                  cost = 1 + Rng.int rng 8;
                  d = Rng.int rng agentic_docs;
                })
        in
        { Agentic.agent; steps; fail_at = None })
  in
  let edges = ref 0 in
  each_seed (fun seed ->
      let r = run_agentic ~plans ~faulted:false seed in
      check_agentic ~ctx:"prop-delegation" seed r;
      let committed = Oracle.committed r.a_entries in
      List.iter
        (fun (o : Agentic.outcome) ->
          List.iter
            (fun (child, adopter) ->
              incr edges;
              (* The adopter carries the effects; the child committed an
                 empty shell.  Both must have terminated committed. *)
              if not (List.exists (Tid.equal adopter) committed) then
                Alcotest.failf "prop-delegation seed %d (%s): adopter did not commit" seed
                  (repro seed);
              if not (List.exists (Tid.equal child) committed) then
                Alcotest.failf "prop-delegation seed %d (%s): child did not commit" seed
                  (repro seed))
            o.Agentic.o_contract.Agentic.delegations)
        r.a_outcomes);
  Alcotest.(check bool) "delegation edges exercised" true (!edges > 0)

(* Agentic steps the engine refuses.  With [max_transactions = 1] a
   handoff's adopter is initiated and its sub-agent refused: the
   adopter must be aborted, not left initiated.  With
   [max_transactions = 0] a call step is refused outright: the plan
   fails and the step counts as a give-up, in the outcome and in the
   engine's counter. *)
let run_refused_plan ~max_transactions step =
  let config = { E.default_config with E.max_transactions } in
  let outcome = ref None in
  let db_ref = ref None in
  let (), entries =
    Trace.with_memory (fun () ->
        db_ref :=
          Some
            (R.with_fresh_db ~config ~objects:0 (fun db ->
                 outcome :=
                   Some
                     (Agentic.run_plan ~rng:(Rng.create 1) db
                        { Agentic.agent = 0; steps = [ step ]; fail_at = None }))))
  in
  (Option.get !outcome, Option.get !db_ref, entries)

let test_agentic_handoff_refused_child () =
  let o, db, entries =
    run_refused_plan ~max_transactions:1 (Agentic.Handoff { tool = "h"; cost = 1; d = 0 })
  in
  let initiated =
    List.filter_map
      (fun (e : Trace.entry) -> match e.ev with Trace.Initiate { tid; _ } -> Some tid | _ -> None)
      entries
  in
  Alcotest.(check int) "the adopter was initiated" 1 (List.length initiated);
  List.iter
    (fun t -> Alcotest.(check bool) (Format.asprintf "%a terminated" Tid.pp t) true (E.is_terminated db t))
    initiated;
  Alcotest.(check bool) "plan failed" true o.Agentic.o_failed;
  Alcotest.(check int) "gave up" 1 o.Agentic.o_gave_up

let test_agentic_refused_call_gives_up () =
  let o, db, _ =
    run_refused_plan ~max_transactions:0 (Agentic.Call { tool = "c"; cost = 1; d = 0 })
  in
  Alcotest.(check bool) "plan failed" true o.Agentic.o_failed;
  Alcotest.(check int) "outcome gave_up" 1 o.Agentic.o_gave_up;
  Alcotest.(check int) "engine gave_up" 1 (List.assoc "gave_up" (E.stats db))

(* ------------------------------------------------------------------ *)
(* The retry loop itself.                                              *)

(* Run [body] under [Workload.retry] with [max_retries = 3]; returns
   the outcome, the retry count, how often the body ran, and the
   engine. *)
let run_retry ?(config = E.default_config) body =
  let runs = ref 0 and result = ref None in
  let db =
    R.with_fresh_db ~config ~objects:1 (fun db ->
        result :=
          Some
            (Workload.retry ~max_retries:3 ~rng:(Rng.create 7) db
               (Workload.atomic db (fun () ->
                    incr runs;
                    body db !runs))))
  in
  let outcome, retries = Option.get !result in
  (outcome, retries, !runs, db)

let engine_stat db name = List.assoc name (E.stats db)

let test_retry_transient_until_commit () =
  let outcome, retries, runs, db =
    run_retry (fun db run ->
        E.write db (Oid.of_int 1) (Value.of_int run);
        if run < 3 then raise (Fault.Injected "transient"))
  in
  Alcotest.(check bool) "committed" true
    (match outcome with Workload.Committed _ -> true | _ -> false);
  Alcotest.(check int) "two retries" 2 retries;
  Alcotest.(check int) "three runs" 3 runs;
  Alcotest.(check int) "engine retries" 2 (engine_stat db "retries");
  Alcotest.(check int) "engine gave_up" 0 (engine_stat db "gave_up");
  Alcotest.(check int) "third run's write" 3 (read_int (E.store db) (Oid.of_int 1))

let test_retry_body_failure_runs_once () =
  let outcome, retries, runs, db = run_retry (fun _ _ -> failwith "real failure") in
  Alcotest.(check bool) "failed with the body's exception" true
    (match outcome with Workload.Failed (Failure _) -> true | _ -> false);
  Alcotest.(check int) "no retries" 0 retries;
  Alcotest.(check int) "one run" 1 runs;
  Alcotest.(check int) "engine retries" 0 (engine_stat db "retries");
  Alcotest.(check int) "engine gave_up" 1 (engine_stat db "gave_up")

let test_retry_budget_exhausted () =
  let outcome, retries, runs, db = run_retry (fun _ _ -> raise (Fault.Injected "always")) in
  Alcotest.(check bool) "gave up" true (outcome = Workload.Gave_up);
  Alcotest.(check int) "max_retries retries" 3 retries;
  Alcotest.(check int) "one run per attempt" 4 runs;
  Alcotest.(check int) "engine retries" 3 (engine_stat db "retries");
  Alcotest.(check int) "engine gave_up" 1 (engine_stat db "gave_up")

let test_retry_refused_gives_up () =
  let config = { E.default_config with E.max_transactions = 0 } in
  let outcome, retries, runs, db = run_retry ~config (fun _ _ -> ()) in
  Alcotest.(check bool) "gave up" true (outcome = Workload.Gave_up);
  Alcotest.(check int) "no retries" 0 retries;
  Alcotest.(check int) "body never ran" 0 runs;
  Alcotest.(check int) "engine gave_up" 1 (engine_stat db "gave_up")

(* ------------------------------------------------------------------ *)
(* OLTP family, single engine.                                         *)

let oltp_cfg = Oltp.default_config
let oltp_balance0 = 50
let oltp_stock0 = 40
let oltp_txns = 24

let run_oltp ?(snapshot_readers = false) ~faulted seed =
  Fault.reset_all ();
  if faulted then
    Fault.arm Oltp.site_op (Fault.Fail_prob (0.08, Rng.create (seed lxor 0x5eed)));
  let stats = ref [] in
  let db_ref = ref None in
  let entries =
    Fun.protect ~finally:Fault.reset_all (fun () ->
        match
          Trace.with_memory (fun () ->
              let db =
                R.with_fresh_db ~objects:0 ~max_steps:4_000_000
                  ~policy:(Sched.Random_seeded seed) (fun db ->
                    Oltp.setup (E.store db) oltp_cfg ~balance0:oltp_balance0
                      ~stock0:oltp_stock0;
                    stats :=
                      Oltp.run_mix ~snapshot_readers db ~seed ~txns:oltp_txns oltp_cfg)
              in
              db_ref := Some db)
        with
        | (), entries -> entries
        | exception exn ->
            Alcotest.failf "oltp seed %d%s (%s): raised %s" seed
              (if faulted then " (faulted)" else "")
              (repro seed) (Printexc.to_string exn))
  in
  (!stats, entries, E.store (Option.get !db_ref))

let check_oltp ~ctx seed (stats, entries, store) =
  List.iter
    (fun (law, ok) ->
      if not ok then
        Alcotest.failf "%s seed %d (%s): %s conservation broken" ctx seed (repro seed) law)
    (Oltp.check_conservation store oltp_cfg ~balance0:oltp_balance0 ~stock0:oltp_stock0);
  (* Queue lengths tie to committed per-class counts. *)
  let committed k = (List.assoc k stats).Oltp.s_committed in
  let orders_len, history_len = Oltp.queue_lengths store in
  if orders_len <> committed Oltp.New_order then
    Alcotest.failf "%s seed %d (%s): %d orders, %d committed new-orders" ctx seed
      (repro seed) orders_len (committed Oltp.New_order);
  if history_len <> committed Oltp.Payment + committed Oltp.Delivery then
    Alcotest.failf "%s seed %d (%s): %d history rows, %d committed pay+deliv" ctx seed
      (repro seed) history_len
      (committed Oltp.Payment + committed Oltp.Delivery);
  fail_violations ~ctx seed (Oracle.check_strict_history entries)

let test_oltp_conformance ~snapshot_readers ~faulted () =
  let ctx =
    Printf.sprintf "oltp%s%s"
      (if snapshot_readers then "(mvcc)" else "")
      (if faulted then "(faulted)" else "")
  in
  each_seed (fun seed -> check_oltp ~ctx seed (run_oltp ~snapshot_readers ~faulted seed))

(* Every generated transaction ends committed or given up, including
   those the engine refuses once [max_transactions] is reached (the
   null tid): per class, and in the engine's own give-up counter. *)
let test_oltp_accounts_refused () =
  let config = { E.default_config with E.max_transactions = 10 } in
  let stats = ref [] in
  let db =
    R.with_fresh_db ~config ~objects:0 (fun db ->
        Oltp.setup (E.store db) oltp_cfg ~balance0:oltp_balance0 ~stock0:oltp_stock0;
        stats := Oltp.run_mix db ~seed:1 ~txns:oltp_txns oltp_cfg)
  in
  let sum f = List.fold_left (fun acc (_, st) -> acc + f st) 0 !stats in
  let committed = sum (fun st -> st.Oltp.s_committed) in
  let gave_up = sum (fun st -> st.Oltp.s_gave_up) in
  Alcotest.(check int) "committed + gave up = txns" oltp_txns (committed + gave_up);
  Alcotest.(check bool) "some refused" true (gave_up >= oltp_txns - 10);
  Alcotest.(check int) "engine gave_up counter" gave_up (List.assoc "gave_up" (E.stats db))

(* Allocation budget of the plain-2PL mix on a hot table: 64
   read-then-write transactions launched at once on 16 accounts and 32
   items wait on locks about 60 times per commit.  Every wait parks
   with a reason string and every transaction gets a fiber label, so
   neither may go through [Format] or [Printf].  The run is
   deterministic (fixed seed, default scheduler), and so is its count
   of minor-heap words: about 68 900 per committed transaction with
   formatted reasons, about 18 800 with concatenated ones.  The budget
   leaves 25% headroom over the latter. *)
let oltp_rmw_words_budget = 24_000.

let test_oltp_rmw_alloc_budget () =
  let cfg = { Oltp.default_config with Oltp.accounts = 16; items = 32 } in
  let store = Asset_storage.Heap_store.store () in
  Oltp.setup store cfg ~balance0:1_000 ~stock0:1_000;
  let db = E.create store in
  let stats = ref [] in
  let before = Gc.minor_words () in
  R.run_exn db (fun () -> stats := Oltp.run_mix ~rmw:true db ~seed:7 ~txns:64 cfg);
  let words = Gc.minor_words () -. before in
  let committed = List.fold_left (fun acc (_, st) -> acc + st.Oltp.s_committed) 0 !stats in
  let per_txn = words /. float_of_int committed in
  if per_txn > oltp_rmw_words_budget then
    Alcotest.failf "%.1f minor words per committed txn > budget %.0f" per_txn
      oltp_rmw_words_budget

(* ------------------------------------------------------------------ *)
(* OLTP on the sharded engine: every generated transaction becomes a
   2PC group with one participant body per home shard.               *)

let shard_domains = 2

let test_oltp_sharded () =
  let seeds = max 1 (n_seeds / 10) in
  for i = 0 to seeds - 1 do
    let seed = base_seed + i in
    let init o =
      if o = 3 || o = 4 then Value.of_queue []
      else if o >= 1000 && o < 1000 + oltp_cfg.Oltp.accounts then Value.of_int oltp_balance0
      else if o >= 2000 && o < 2000 + oltp_cfg.Oltp.items then Value.of_int oltp_stock0
      else Value.of_int 0
    in
    let sys =
      Shard.create ~trace:true ~domains:shard_domains
        ~objects:(2000 + oltp_cfg.Oltp.items) ~init ()
    in
    let coord = Shard.Coord.create sys in
    let committed_expect = Hashtbl.create 8 in
    List.iter (fun k -> Hashtbl.replace committed_expect k 0) Oltp.all_klasses;
    for j = 0 to oltp_txns - 1 do
      let rng = Rng.create (seed + (j * 104729)) in
      let txn = Oltp.gen_txn ~rng oltp_cfg in
      let by_shard = Hashtbl.create 4 in
      List.iter
        (fun (oid, op) ->
          let s = Shard.shard_of sys oid in
          let prev = try Hashtbl.find by_shard s with Not_found -> [] in
          Hashtbl.replace by_shard s ((oid, op) :: prev))
        (Oltp.ops_of txn);
      let parts =
        Hashtbl.fold
          (fun s ops acc ->
            (s, fun eng -> List.iter (Oltp.apply eng) (List.rev ops)) :: acc)
          by_shard []
      in
      Shard.Coord.submit coord parts
    done;
    Shard.Coord.drain coord;
    Shard.shutdown sys;
    Alcotest.(check int)
      (Printf.sprintf "oltp-sharded seed %d: no mixed outcomes" seed)
      0
      (Shard.Coord.mixed coord);
    (* Conservation across the union of the shard stores: each object
       lives on its home shard only, so summing over all stores sums
       each cell once. *)
    let sum f =
      let acc = ref 0 in
      for s = 0 to shard_domains - 1 do
        acc := !acc + f (E.store (Shard.engine sys s))
      done;
      !acc
    in
    let sum_cells n cell st =
      let t = ref 0 in
      for i = 0 to n - 1 do
        t := !t + read_int st (cell i)
      done;
      !t
    in
    let money =
      sum (sum_cells oltp_cfg.Oltp.accounts Oltp.account) + sum (fun st -> read_int st Oltp.ledger)
    in
    if money <> oltp_cfg.Oltp.accounts * oltp_balance0 then
      Alcotest.failf "oltp-sharded seed %d (%s): money %d, expected %d" seed (repro seed)
        money
        (oltp_cfg.Oltp.accounts * oltp_balance0);
    let goods =
      sum (sum_cells oltp_cfg.Oltp.items Oltp.stock)
      + sum (fun st -> read_int st Oltp.reserved)
      + sum (fun st -> read_int st Oltp.delivered)
    in
    if goods <> oltp_cfg.Oltp.items * oltp_stock0 then
      Alcotest.failf "oltp-sharded seed %d (%s): goods %d, expected %d" seed (repro seed)
        goods
        (oltp_cfg.Oltp.items * oltp_stock0);
    fail_violations ~ctx:"oltp-sharded" seed
      (Oracle.check_strict_history (Shard.merged_trace sys))
  done

(* ------------------------------------------------------------------ *)
(* Agentic saga over the sharded engine: each plan step is one
   cross-shard 2PC group (budget, doc and audit live on their home
   shards), compensations included; delegation and EXC dependencies
   are engine-local, so speculation degrades to driver-enforced
   try-in-order and handoff to a plain call — the saga/compensation
   and conservation semantics are what this variant pins. *)

let test_agentic_sharded () =
  let seeds = max 1 (n_seeds / 10) in
  for i = 0 to seeds - 1 do
    let seed = base_seed + i in
    let budget0 = 100 in
    let init o =
      if Oid.of_int o = Agentic.budget then Value.of_int budget0
      else if Oid.of_int o = Agentic.audit then Value.of_queue []
      else Value.of_int 0
    in
    let sys =
      Shard.create ~trace:true ~domains:shard_domains ~objects:(10 + agentic_docs) ~init ()
    in
    let coord = Shard.Coord.create sys in
    let submit_step ~cost ~d ~tag =
      (* One step = one cross-shard group touching budget, a doc and
         the audit queue. *)
      let ops =
        [
          (Agentic.budget, `Escrow (-cost));
          (Agentic.doc d, `Write cost);
          (Agentic.audit, `Enq ("call:" ^ tag));
        ]
      in
      let by_shard = Hashtbl.create 4 in
      List.iter
        (fun (oid, op) ->
          let s = Shard.shard_of sys oid in
          let prev = try Hashtbl.find by_shard s with Not_found -> [] in
          Hashtbl.replace by_shard s ((oid, op) :: prev))
        ops;
      let apply eng (oid, op) =
        match op with
        | `Escrow delta -> E.escrow eng oid delta ~lo:0 ~hi:max_int
        | `Write v -> E.write eng oid (Value.of_int v)
        | `Enq item -> E.enqueue eng oid item
        | `Incr n -> E.increment eng oid n
      in
      Shard.Coord.submit coord
        (Hashtbl.fold
           (fun s ops acc -> (s, fun eng -> List.iter (apply eng) (List.rev ops)) :: acc)
           by_shard []);
      Shard.Coord.drain coord
    in
    let submit_refund ~cost ~tag =
      let ops = [ (Agentic.budget, `Incr cost); (Agentic.audit, `Enq ("undo:" ^ tag)) ] in
      let by_shard = Hashtbl.create 4 in
      List.iter
        (fun (oid, op) ->
          let s = Shard.shard_of sys oid in
          let prev = try Hashtbl.find by_shard s with Not_found -> [] in
          Hashtbl.replace by_shard s ((oid, op) :: prev))
        ops;
      let apply eng (oid, op) =
        match op with
        | `Incr n -> E.increment eng oid n
        | `Enq item -> E.enqueue eng oid item
      in
      Shard.Coord.submit coord
        (Hashtbl.fold
           (fun s ops acc -> (s, fun eng -> List.iter (apply eng) (List.rev ops)) :: acc)
           by_shard []);
      Shard.Coord.drain coord
    in
    (* Run three saga plans sequentially: steps forward, then — for
       failing plans — compensations in reverse.  Commit outcomes come
       from the coordinator's counters. *)
    let rng = Rng.create (seed lxor 0x5a6a) in
    let spend = ref 0 and audits = ref 0 in
    for agent = 0 to 2 do
      let n_steps = 2 + Rng.int rng 3 in
      let fail = Rng.int rng 2 = 0 in
      let steps =
        List.init n_steps (fun i ->
            (1 + Rng.int rng 8, Rng.int rng agentic_docs, Printf.sprintf "a%d.s%d" agent i))
      in
      let before = Shard.Coord.committed coord in
      List.iter (fun (cost, d, tag) -> submit_step ~cost ~d ~tag) steps;
      let landed = Shard.Coord.committed coord - before in
      let committed_steps = List.filteri (fun i _ -> i < landed) steps in
      List.iter (fun (cost, _, _) -> spend := !spend + cost) committed_steps;
      audits := !audits + landed;
      if fail then begin
        let before = Shard.Coord.committed coord in
        List.iter
          (fun (cost, _, tag) -> submit_refund ~cost ~tag)
          (List.rev committed_steps);
        let refunded = Shard.Coord.committed coord - before in
        (* Refunds are commuting increments: they cannot abort. *)
        Alcotest.(check int)
          (Printf.sprintf "agentic-sharded seed %d: all refunds landed" seed)
          (List.length committed_steps) refunded;
        List.iter (fun (cost, _, _) -> spend := !spend - cost) committed_steps;
        audits := !audits + refunded
      end
    done;
    Shard.shutdown sys;
    Alcotest.(check int)
      (Printf.sprintf "agentic-sharded seed %d: no mixed outcomes" seed)
      0
      (Shard.Coord.mixed coord);
    let read_across f =
      let acc = ref 0 in
      for s = 0 to shard_domains - 1 do
        acc := !acc + f (E.store (Shard.engine sys s))
      done;
      !acc
    in
    let budget_now = read_across (fun st -> read_int st Agentic.budget) in
    if budget_now <> budget0 - !spend then
      Alcotest.failf "agentic-sharded seed %d (%s): budget %d, expected %d" seed
        (repro seed) budget_now (budget0 - !spend);
    let audit_len = read_across (fun st -> read_queue_len st Agentic.audit) in
    if audit_len <> !audits then
      Alcotest.failf "agentic-sharded seed %d (%s): audit %d items, expected %d" seed
        (repro seed) audit_len !audits;
    fail_violations ~ctx:"agentic-sharded" seed
      (Oracle.check_strict_history (Shard.merged_trace sys))
  done

(* ------------------------------------------------------------------ *)
(* Negative conformance: the contract checkers must reject corrupted
   contracts — swapped compensation order, fabricated double-commit
   exclusivity — proving the positive runs above have teeth.          *)

let test_negative_contracts () =
  (* A failing plan with a deterministic schedule gives us a real
     history with real compensations. *)
  let plans _seed =
    [
      {
        Agentic.agent = 0;
        steps =
          [
            Agentic.Call { tool = "s0.call"; cost = 2; d = 0 };
            Agentic.Call { tool = "s1.call"; cost = 3; d = 1 };
            Agentic.Call { tool = "s2.call"; cost = 4; d = 2 };
          ];
        fail_at = Some 2;
      };
    ]
  in
  let r = run_agentic ~plans ~faulted:false 42 in
  let o = List.hd r.a_outcomes in
  let pairs = o.Agentic.o_contract.Agentic.comp_pairs in
  Alcotest.(check int) "two compensations recorded" 2 (List.length pairs);
  (* The honest contract passes... *)
  Alcotest.(check int) "honest contract passes" 0
    (List.length (Oracle.check_compensation_order ~pairs r.a_entries));
  (* ...and a cross-wired contract is rejected: associating each
     component with the other's compensation claims the saga
     compensated in forward order, which the recorded commit times
     refute. *)
  let crossed =
    match pairs with
    | [ (c0, k0); (c1, k1) ] -> [ (c0, k1); (c1, k0) ]
    | _ -> Alcotest.fail "expected exactly two pairs"
  in
  Alcotest.(check bool) "cross-wired compensation contract rejected" true
    (Oracle.check_compensation_order ~pairs:crossed r.a_entries <> []);
  (* A fabricated exclusivity group naming two committed transactions
     must be flagged. *)
  let committed = Oracle.committed r.a_entries in
  (match committed with
  | a :: b :: _ ->
      Alcotest.(check bool) "double-commit exclusivity rejected" true
        (check_exclusive ~groups:[ [ a; b ] ] r.a_entries <> [])
  | _ -> Alcotest.fail "expected at least two committed transactions")

(* ------------------------------------------------------------------ *)
(* The workload miniatures explore exhaustively with nonzero POR
   reduction (the scenario themselves are registered in Scenario.all
   and fully explored by test_check; here we pin the reduction).      *)

let test_scenarios_por_reduction () =
  List.iter
    (fun name ->
      match Asset_check.Scenario.by_name name with
      | None -> Alcotest.failf "missing scenario %s" name
      | Some s ->
          let r = Asset_check.Explore.explore s in
          Alcotest.(check bool) (name ^ ": completed") true r.Asset_check.Explore.completed;
          Alcotest.(check bool)
            (name ^ ": no failure") true
            (r.Asset_check.Explore.failure = None);
          Alcotest.(check bool)
            (name ^ ": POR pruned something")
            true
            (r.Asset_check.Explore.pruned > 0))
    [ "agent-speculation"; "agent-handoff"; "oltp-mini" ]

(* ------------------------------------------------------------------ *)
(* The agent-session example (satellite 6) dumps its full history as
   JSONL behind --trace; the loaded trace must satisfy the oracle's
   cooperative bundle (the session uses delegation, so lock ownership
   moves between transactions by design). *)

let test_agent_session_trace () =
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      (Filename.concat "../examples" "agent_session.exe")
  in
  let trace = Filename.temp_file "agent_session" ".jsonl" in
  let cmd =
    Printf.sprintf "%s --trace %s > /dev/null 2>&1" (Filename.quote exe)
      (Filename.quote trace)
  in
  let rc = Sys.command cmd in
  if rc <> 0 then Alcotest.failf "%s exited with %d" exe rc;
  let entries = Trace.load_jsonl trace in
  (try Sys.remove trace with Sys_error _ -> ());
  Alcotest.(check bool) "trace non-trivial" true (List.length entries > 40);
  fail_violations ~ctx:"agent_session trace" 0 (Oracle.check_cooperative_history entries);
  (* The session's one failing saga compensated: the trace carries both
     committed "undo" transactions after their components. *)
  Alcotest.(check bool) "session committed transactions" true
    (List.length (Oracle.committed entries) >= 6)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "workloads"
    [
      ( "agentic",
        [
          Alcotest.test_case "conformance: clean schedules" `Slow
            (test_agentic_conformance ~faulted:false);
          Alcotest.test_case "conformance: 8% injected faults" `Slow
            (test_agentic_conformance ~faulted:true);
          Alcotest.test_case "conformance: lock-timeout config" `Slow
            test_agentic_timeout_config;
        ] );
      ( "agentic-properties",
        [
          Alcotest.test_case "saga compensation ordering" `Slow test_prop_compensation_order;
          Alcotest.test_case "contingent-alternate exclusivity" `Slow test_prop_exclusivity;
          Alcotest.test_case "delegation re-attributes escrow" `Slow
            test_prop_delegation_escrow;
          Alcotest.test_case "refused handoff child aborts the adopter" `Quick
            test_agentic_handoff_refused_child;
          Alcotest.test_case "refused step counted as given up" `Quick
            test_agentic_refused_call_gives_up;
        ] );
      ( "retry",
        [
          Alcotest.test_case "transient failure retried until commit" `Quick
            test_retry_transient_until_commit;
          Alcotest.test_case "body failure runs once" `Quick test_retry_body_failure_runs_once;
          Alcotest.test_case "budget exhausted gives up" `Quick test_retry_budget_exhausted;
          Alcotest.test_case "refused initiate gives up" `Quick test_retry_refused_gives_up;
        ] );
      ( "oltp",
        [
          Alcotest.test_case "conformance: clean schedules" `Slow
            (test_oltp_conformance ~snapshot_readers:false ~faulted:false);
          Alcotest.test_case "conformance: 8% injected faults" `Slow
            (test_oltp_conformance ~snapshot_readers:false ~faulted:true);
          Alcotest.test_case "conformance: MVCC snapshot readers" `Slow
            (test_oltp_conformance ~snapshot_readers:true ~faulted:false);
          Alcotest.test_case "conformance: MVCC + faults" `Slow
            (test_oltp_conformance ~snapshot_readers:true ~faulted:true);
          Alcotest.test_case "refused transactions counted as given up" `Quick
            test_oltp_accounts_refused;
          Alcotest.test_case "rmw allocation budget" `Quick test_oltp_rmw_alloc_budget;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "oltp cross-shard 2PC mix" `Slow test_oltp_sharded;
          Alcotest.test_case "agentic saga over 2PC steps" `Slow test_agentic_sharded;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "negative: corrupted contracts rejected" `Quick
            test_negative_contracts;
          Alcotest.test_case "miniature scenarios: exhaustive with POR" `Slow
            test_scenarios_por_reduction;
        ] );
      ( "examples",
        [
          Alcotest.test_case "agent session trace passes oracle" `Quick
            test_agent_session_trace;
        ] );
    ]
