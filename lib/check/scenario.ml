(* Bounded scenarios for the systematic explorer.

   A scenario is a closed little world: a fresh in-memory store, an
   engine configuration, a main program that sets up N transactions of
   K operations each (plus the delegate/permit/abort actions under
   test) and drives them to quiescence, and the oracle checkers the
   terminal history must satisfy.  The explorer runs the same scenario
   once per schedule, so everything here must be deterministic given
   the scheduler's choices — no wall clock, no ambient randomness.

   The canned scenarios cover the paper's section-3 constructions:
   split/join handoff (3.1.5), saga compensation ordering (3.1.6),
   contingent alternates (3.1.3) and cooperating-group permits (3.2.1),
   plus the adversarial shapes the mutation tests need (a lock-order
   cycle, a commit-dependency chain, a stale transitive permit
   chain, and a delegation that must withdraw pending requests). *)

module E = Asset_core.Engine
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Ops = Asset_lock.Mode.Ops
module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle

type t = {
  name : string;
  objects : int;  (** store is pre-populated with oids [0, objects) at value 0 *)
  config : E.config;
  main : E.t -> unit;  (** runs as the root fiber *)
  checks : Trace.entry list -> Oracle.violation list;
      (** oracle bundle a terminal history must satisfy *)
}

let make ?(objects = 4) ?(config = E.default_config)
    ?(checks = Oracle.check_cooperative_history) ~name main =
  { name; objects; config; checks; main }

(* ------------------------------------------------------------------ *)
(* Step DSL: transaction bodies as flat op lists.  Every op is followed
   by an explicit yield, making each operation boundary a scheduler
   choice point — the "N txns x K ops" granularity of the bounded
   state space. *)

type step =
  | R of int  (** read object *)
  | W of int * int  (** write object := value *)
  | I of int * int  (** increment object by delta *)
  | Y  (** bare yield (an extra preemption point) *)

let run_step db = function
  | R o -> ignore (E.read db (Oid.of_int o))
  | W (o, v) -> E.write db (Oid.of_int o) (Value.of_int v)
  | I (o, d) -> E.increment db (Oid.of_int o) d
  | Y -> ()

let body db steps () =
  List.iter
    (fun s ->
      run_step db s;
      Sched.yield ())
    steps

(* Initiate one transaction per step list, begin them all, then commit
   each from a dedicated committer fiber so commit order is itself
   schedulable; the main fiber parks until every transaction
   terminated.  Commit may legitimately return false (deadlock victim,
   timeout) — the oracle judges the resulting history, not the
   return value. *)
let run_txns db bodies =
  let tids = List.map (fun steps -> E.initiate db (body db steps)) bodies in
  ignore (E.begin_many db tids);
  List.iteri
    (fun i tid ->
      E.spawn db ~label:(Printf.sprintf "committer-%d" i) (fun () -> ignore (E.commit db tid)))
    tids;
  E.await_terminated db tids;
  tids

(* ------------------------------------------------------------------ *)
(* Canned scenarios *)

(* Two writers hand one object over: the canonical version-keyed
   wait-queue workout.  Every schedule must terminate with both
   transactions committed — a waiter left suspended at quiescence
   surfaces as a deadlock, which the explorer reports. *)
let handoff =
  make ~name:"handoff" ~objects:1 ~checks:Oracle.check_strict_history (fun db ->
      ignore (run_txns db [ [ W (0, 1); Y ]; [ W (0, 2); Y ] ]))

(* Three transactions, two objects, disjoint-object prefixes: the
   shape where partial-order reduction pays — operations on different
   objects commute and the sleep sets prune the interleavings that
   differ only in commuting segments. *)
let disjoint_writers =
  make ~name:"disjoint-writers" ~objects:2 ~checks:Oracle.check_strict_history (fun db ->
      ignore (run_txns db [ [ W (0, 1) ]; [ W (1, 2) ]; [ R 0 ] ]))

(* Split/join handoff (section 3.1.5): t1 updates two objects, splits
   responsibility for the second off to t2 (delegate + begin), both
   commit independently.  Delegation re-attributes the update, so the
   committed projection must stay serializable. *)
let split_handoff =
  make ~name:"split-handoff" ~objects:2 (fun db ->
      let t2_ref = ref Tid.null in
      let t1 =
        E.initiate db (fun () ->
            E.write db (Oid.of_int 0) (Value.of_int 1);
            Sched.yield ();
            E.write db (Oid.of_int 1) (Value.of_int 1);
            Sched.yield ();
            match
              Asset_models.Split_join.split ~objs:[ Oid.of_int 1 ] db (fun () ->
                  E.write db (Oid.of_int 1) (Value.of_int 2);
                  Sched.yield ())
            with
            | Some t2 -> t2_ref := t2
            | None -> failwith "split failed")
      in
      ignore (E.begin_ db t1);
      ignore (E.commit db t1);
      let t2 = !t2_ref in
      if not (Tid.is_null t2) then begin
        ignore (E.commit db t2);
        E.await_terminated db [ t1; t2 ]
      end)

(* Saga compensation ordering (section 3.1.6): the middle step fails,
   so the committed prefix must be compensated in reverse order.  The
   oracle's compensation-order contract checker rides along. *)
let saga_compensation =
  let pairs = ref [] in
  let scen =
    make ~name:"saga-compensation" ~objects:3
      ~checks:(fun entries ->
        Oracle.check_cooperative_history entries
        @ Oracle.check_compensation_order ~pairs:!pairs entries)
      (fun db ->
        pairs := [];
        let record_pair comp compensation = pairs := (comp, compensation) :: !pairs in
        let comp_tids = Array.make 3 Tid.null and compen_tids = Array.make 3 Tid.null in
        let step i fail =
          Asset_models.Saga.step
            ~compensate:(fun () ->
              compen_tids.(i) <- E.self db;
              E.write db (Oid.of_int i) (Value.of_int 0);
              Sched.yield ())
            (fun () ->
              comp_tids.(i) <- E.self db;
              E.write db (Oid.of_int i) (Value.of_int (i + 1));
              Sched.yield ();
              if fail then ignore (E.abort db (E.self db)))
        in
        let result =
          Asset_models.Saga.run db [ step 0 false; step 1 false; step 2 true ]
        in
        (match result with
        | Asset_models.Saga.Committed -> failwith "saga: expected rollback"
        | Asset_models.Saga.Rolled_back _ -> ());
        (* Contract pairs in forward order, only for steps that ran both
           sides. *)
        for i = 2 downto 0 do
          if not (Tid.is_null comp_tids.(i)) && not (Tid.is_null compen_tids.(i)) then
            record_pair comp_tids.(i) compen_tids.(i)
        done)
  in
  scen

(* Contingent alternates (section 3.1.3): the first alternative always
   aborts, the second commits; at most one may ever commit. *)
let contingent_alternates =
  make ~name:"contingent-alternates" ~objects:2 ~checks:Oracle.check_strict_history (fun db ->
      let result =
        Asset_models.Contingent.run db
          [
            (fun () ->
              E.write db (Oid.of_int 0) (Value.of_int 1);
              Sched.yield ();
              ignore (E.abort db (E.self db)));
            (fun () ->
              E.write db (Oid.of_int 1) (Value.of_int 2);
              Sched.yield ());
          ]
      in
      match result with
      | `Committed 1 -> ()
      | `Committed i -> Fmt.failwith "contingent: alternative %d committed" i
      | `All_aborted -> failwith "contingent: all aborted"
      | `Initiate_failed -> failwith "contingent: initiate failed")

(* Cooperating-group permits (section 3.2.1): two transactions work on
   the same objects under mutual permits with group-commit coupling —
   uncommitted data flows, so only the cooperative oracle bundle
   applies, and the pair must commit atomically. *)
let coop_permits =
  let group = ref [] in
  make ~name:"coop-permits" ~objects:2
    ~checks:(fun entries ->
      Oracle.check_cooperative_history entries
      @ Oracle.check_group_atomicity ~groups:[ !group ] entries)
    (fun db ->
      group := [];
      let oids = [ Oid.of_int 0; Oid.of_int 1 ] in
      let mk steps = E.initiate db (body db steps) in
      let t1 = mk [ W (0, 1); Y; W (1, 1) ] and t2 = mk [ W (1, 2); Y; W (0, 2) ] in
      group := [ t1; t2 ];
      Asset_models.Coop.pair db ~ti:t1 ~tj:t2 ~objs:oids ~ops:Ops.all ~coupling:`Group;
      ignore (E.begin_many db [ t1; t2 ]);
      E.spawn db ~label:"committer-1" (fun () -> ignore (E.commit db t1));
      E.spawn db ~label:"committer-2" (fun () -> ignore (E.commit db t2));
      E.await_terminated db [ t1; t2 ])

(* Opposite-order lock acquisition: with deadlock detection on, every
   schedule either serializes cleanly or aborts a victim; with the
   detection mutation, the schedules that interleave the two prefixes
   stall into [Scheduler.Deadlock]. *)
let cross_locks =
  make ~name:"cross-locks" ~objects:2 ~checks:Oracle.check_strict_history (fun db ->
      ignore (run_txns db [ [ W (0, 1); W (1, 1) ]; [ W (1, 2); W (0, 2) ] ]))

(* Commit-dependency chain: the dependent may only commit after the
   master terminates.  Commits race from separate fibers, so dropping
   the CD edge lets some schedule commit the dependent first — a CD
   discharge violation in the history.  With [~drop_cd_edge] (the
   drop-cd-edge seeded bug) the main program only claims the edge: it
   emits the CD trace event itself and never records it in the engine,
   so commit never waits on the master. *)
let cd_chain_main ~drop_cd_edge db =
  let master = E.initiate db (body db [ W (0, 1); Y; Y ]) in
  let dependent = E.initiate db (body db [ W (1, 2) ]) in
  if drop_cd_edge then Trace.emit (Trace.Dep { dtype = "CD"; master; dependent })
  else ignore (E.form_dependency db Asset_deps.Dep_type.CD master dependent);
  ignore (E.begin_many db [ master; dependent ]);
  E.spawn db ~label:"committer-dep" (fun () -> ignore (E.commit db dependent));
  E.spawn db ~label:"committer-master" (fun () -> ignore (E.commit db master));
  E.await_terminated db [ master; dependent ]

let cd_chain =
  make ~name:"cd-chain" ~objects:2 ~checks:Oracle.check_strict_history
    (cd_chain_main ~drop_cd_edge:false)

let cd_chain_dropping_edge = cd_chain_main ~drop_cd_edge:true

(* Stale transitive permit chain: t_h permits t_m, t_m permits t_3,
   then t_m aborts.  A correct engine severs the chain at the abort
   ([remove_permits]), so t_3's conflicting write waits for t_h's
   commit; an engine that skips permit removal grants it through the
   dead middleman while t_h's update is still dirty — a visibility
   violation under the oracle's expiring, transitive permit model.
   With [~keep_permits] (the skip-remove-permits seeded bug) the main
   program puts both permits straight back into the lock table after
   the abort, silently — no trace event — leaving exactly the table an
   engine that skipped the removal would have left. *)
let stale_permit_chain_main ~keep_permits db =
  let o0 = Oid.of_int 0 in
  let th = E.initiate db (body db [ W (0, 1); Y; Y ]) in
  let tm = E.initiate db (fun () -> Sched.yield ()) in
  let t3 = E.initiate db (body db [ W (0, 3) ]) in
  E.permit db ~from_:th ~to_:tm ~oids:[ o0 ] ~ops:Ops.all;
  E.permit db ~from_:tm ~to_:t3 ~oids:[ o0 ] ~ops:Ops.all;
  ignore (E.begin_many db [ th; tm ]);
  ignore (E.abort db tm);
  if keep_permits then
    List.iter
      (fun (grantor, grantee) ->
        Asset_lock.Lock_manager.add_permit (E.locks db) ~grantor ~grantee:(Some grantee) ~oid:o0
          ~ops:Ops.all)
      [ (th, tm); (tm, t3) ];
  ignore (E.begin_ db t3);
  E.spawn db ~label:"committer-3" (fun () -> ignore (E.commit db t3));
  ignore (E.commit db th);
  E.await_terminated db [ th; tm; t3 ]

let stale_permit_chain =
  make ~name:"stale-permit-chain" ~objects:1 (stale_permit_chain_main ~keep_permits:false)

let stale_permit_chain_keeping_permits = stale_permit_chain_main ~keep_permits:true

(* Delegation racing a pending lock request: depending on the
   schedule, the main fiber's delegate of t1's work to t3 lands while
   t1 is enqueued behind the holder (the PR-2 withdraw-pending path),
   after t1 already holds the lock (the transfer path), or before t1
   asked at all.  Every variant must terminate with a clean
   cooperative history — a stale pending request left behind by the
   delegation is exactly the kind of bug that wedges some
   interleavings only. *)
let delegate_pending =
  make ~name:"delegate-pending" ~objects:1 (fun db ->
      let o0 = Oid.of_int 0 in
      let holder = E.initiate db (body db [ W (0, 9) ]) in
      let t1 = E.initiate db (body db [ W (0, 1) ]) in
      let t3 = E.initiate db (body db []) in
      ignore (E.begin_many db [ holder; t1 ]);
      Sched.yield ();
      E.delegate db ~from_:t1 ~to_:t3 ~oids:[ o0 ];
      ignore (E.begin_ db t3);
      E.spawn db ~label:"committer-1" (fun () -> ignore (E.commit db t1));
      E.spawn db ~label:"committer-3" (fun () -> ignore (E.commit db t3));
      ignore (E.commit db holder);
      E.await_terminated db [ holder; t1; t3 ])

(* Escrow bounds forcing a conflict: a counter bounded to [0, 10] with
   two +6 escrow deltas in flight.  The worst case — both committing —
   escapes the bound, so whichever transaction runs its escrow op
   second aborts with [Escrow_violation]: in every schedule exactly one
   of the two commits.  Exercises the 'E' footprint tag end to end —
   escrow ops on one object are schedule-relevant (reordering flips
   which transaction aborts), so the sleep sets must not commute
   them. *)
let escrow_bounds =
  make ~name:"escrow-bounds" ~objects:1 ~checks:Oracle.check_strict_history (fun db ->
      let esc () =
        E.escrow db (Oid.of_int 0) 6 ~lo:0 ~hi:10;
        Sched.yield ()
      in
      let t1 = E.initiate db esc and t2 = E.initiate db esc in
      ignore (E.begin_many db [ t1; t2 ]);
      E.spawn db ~label:"committer-1" (fun () -> ignore (E.commit db t1));
      E.spawn db ~label:"committer-2" (fun () -> ignore (E.commit db t2));
      E.await_terminated db [ t1; t2 ];
      let committed = List.filter (fun t -> E.is_committed db t) [ t1; t2 ] in
      if List.length committed <> 1 then
        Fmt.failwith "escrow-bounds: %d committed, expected exactly 1" (List.length committed))

(* A read-only snapshot reader racing two writers: the reader takes no
   locks, so no schedule can block, deadlock, or abort it, and the
   snapshot-visibility axiom pins exactly what each of its reads may
   return — the newest version committed before its begin.  The 'S'
   footprint tag commutes with everything, so POR prunes hardest
   here. *)
let snapshot_reader =
  make ~name:"snapshot-reader" ~objects:2 ~checks:Oracle.check_strict_history (fun db ->
      let writers =
        List.map (fun steps -> E.initiate db (body db steps)) [ [ W (0, 1); Y ]; [ W (1, 2); Y ] ]
      in
      let reader =
        E.initiate ~read_only:true db (fun () ->
            ignore (E.read db (Oid.of_int 0));
            Sched.yield ();
            ignore (E.read db (Oid.of_int 1)))
      in
      let tids = writers @ [ reader ] in
      ignore (E.begin_many db tids);
      List.iteri
        (fun i tid ->
          E.spawn db ~label:(Printf.sprintf "committer-%d" i) (fun () -> ignore (E.commit db tid)))
        tids;
      E.await_terminated db tids;
      if not (E.is_committed db reader) then failwith "snapshot-reader: reader did not commit")

(* ------------------------------------------------------------------ *)
(* Workload-family miniatures: the agentic and OLTP layers shrunk to
   explorer-sized worlds, so every interleaving of their primitive
   translations (EXC alternates, delegation handoff, escrow/queue
   mixes) is checked, not just the seeded-schedule samples. *)

module Agentic = Asset_workload.Agentic
module Oltp = Asset_workload.Oltp

(* Run each plan in its own fiber and park until all are done; the
   concurrent agents are what gives the explorer an interleaving tree
   (and POR its commuting segments to prune). *)
let run_plans db plans =
  let n = List.length plans in
  let cells = Array.make n None in
  let done_ = ref 0 in
  List.iteri
    (fun i (seed, plan) ->
      E.spawn db ~label:(Printf.sprintf "agent-%d" i) (fun () ->
          cells.(i) <- Some (Agentic.run_plan ~rng:(Asset_util.Rng.create seed) db plan);
          incr done_))
    plans;
  Sched.park ~reason:"agents-done" (fun () -> !done_ >= n);
  Array.to_list cells |> List.map Option.get

(* One speculation (two alternates: the first fails after doing
   rolled-back work, the second commits) racing a read-only gather
   agent.  EXC exclusivity is judged from the recorded contract,
   budget/audit conservation straight from the store, and the
   snapshot reader's commuting segments give POR its pruning. *)
let agent_speculation =
  let excl = ref [] in
  make ~name:"agent-speculation" ~objects:0
    ~checks:(fun entries ->
      let committed = Oracle.committed entries in
      let extra =
        List.concat_map
          (fun g ->
            let n =
              List.length
                (List.filter (fun t -> List.exists (Tid.equal t) committed) g)
            in
            if n <= 1 then []
            else
              [
                {
                  Oracle.check = "exclusive-alternates";
                  detail = Printf.sprintf "%d alternates committed" n;
                };
              ])
          !excl
      in
      Oracle.check_cooperative_history entries
      @ Oracle.check_dependencies entries
      @ extra)
    (fun db ->
      excl := [];
      Agentic.setup (E.store db) ~docs:1 ~budget0:20;
      let spec =
        {
          Agentic.agent = 0;
          steps = [ Agentic.Speculate { tool = "spec"; costs = [ 2; 3 ]; d = 0; winner = 1 } ];
          fail_at = None;
        }
      and gather =
        {
          Agentic.agent = 1;
          steps = [ Agentic.Gather { tool = "gather"; ds = [ 0 ] } ];
          fail_at = None;
        }
      in
      match run_plans db [ (11, spec); (13, gather) ] with
      | [ o; og ] ->
          excl := o.Agentic.o_contract.Agentic.exclusive;
          if o.Agentic.o_failed || og.Agentic.o_failed then
            failwith "agent-speculation: plan failed";
          if o.Agentic.o_committed <> 1 then
            Fmt.failwith "agent-speculation: %d committed, expected 1" o.Agentic.o_committed;
          let budget_now =
            match Asset_storage.Store.read (E.store db) Agentic.budget with
            | Some v -> Value.to_int v
            | None -> -1
          in
          if budget_now <> 20 - o.Agentic.o_spend then
            Fmt.failwith "agent-speculation: budget %d, spend %d" budget_now
              o.Agentic.o_spend
      | _ -> assert false)

(* One sub-agent handoff: the child debits the budget and writes the
   doc, then delegates everything to the adopting step, which commits.
   Cooperative legality covers the re-attributed updates; the escrow
   reservation must survive the delegation into the adopter's
   commit. *)
let agent_handoff =
  make ~name:"agent-handoff" ~objects:0 (fun db ->
      Agentic.setup (E.store db) ~docs:1 ~budget0:20;
      let handoff =
        {
          Agentic.agent = 0;
          steps = [ Agentic.Handoff { tool = "handoff"; cost = 4; d = 0 } ];
          fail_at = None;
        }
      and gather =
        {
          Agentic.agent = 1;
          steps = [ Agentic.Gather { tool = "gather"; ds = [ 0 ] } ];
          fail_at = None;
        }
      in
      match run_plans db [ (13, handoff); (17, gather) ] with
      | [ o; og ] ->
          if o.Agentic.o_failed || og.Agentic.o_failed then
            failwith "agent-handoff: plan failed";
          if List.length o.Agentic.o_contract.Agentic.delegations <> 1 then
            failwith "agent-handoff: missing delegation edge";
          let budget_now =
            match Asset_storage.Store.read (E.store db) Agentic.budget with
            | Some v -> Value.to_int v
            | None -> -1
          in
          if budget_now <> 16 then
            Fmt.failwith "agent-handoff: budget %d, expected 16" budget_now
      | _ -> assert false)

(* A three-class OLTP miniature: one new-order, one payment, one
   delivery over one account and one item.  Whatever commits, both
   conservation laws must hold at quiescence — delivery may
   legitimately abort (nothing reserved yet) and escrow/queue ops
   commute, so POR prunes while the laws pin semantics. *)
let oltp_mini =
  make ~name:"oltp-mini" ~objects:0 (fun db ->
      let cfg = { Oltp.default_config with accounts = 1; items = 1 } in
      Oltp.setup (E.store db) cfg ~balance0:10 ~stock0:5;
      let new_order =
        {
          Oltp.t_klass = Oltp.New_order;
          t_ops =
            [
              (Oltp.stock 0, Oltp.Escrow { delta = -2; lo = 0 });
              (Oltp.reserved, Oltp.Incr 2);
              (Oltp.orders, Oltp.Enq "order:0");
            ];
        }
      and payment =
        {
          Oltp.t_klass = Oltp.Payment;
          t_ops =
            [
              (Oltp.account 0, Oltp.Escrow { delta = -3; lo = 0 });
              (Oltp.ledger, Oltp.Incr 3);
              (Oltp.history, Oltp.Enq "pay:0");
            ];
        }
      and delivery =
        {
          Oltp.t_klass = Oltp.Delivery;
          t_ops =
            [
              (Oltp.reserved, Oltp.Escrow { delta = -1; lo = 0 });
              (Oltp.delivered, Oltp.Incr 1);
              (Oltp.history, Oltp.Enq "deliv");
            ];
        }
      in
      let tids =
        List.map (fun t -> E.initiate db (Oltp.body db t)) [ new_order; payment; delivery ]
      in
      ignore (E.begin_many db tids);
      List.iteri
        (fun i tid ->
          E.spawn db ~label:(Printf.sprintf "committer-%d" i) (fun () ->
              ignore (E.commit db tid)))
        tids;
      E.await_terminated db tids;
      List.iter
        (fun (law, ok) ->
          if not ok then Fmt.failwith "oltp-mini: %s conservation broken" law)
        (Oltp.check_conservation (E.store db) cfg ~balance0:10 ~stock0:5))

let all =
  [
    handoff;
    disjoint_writers;
    split_handoff;
    saga_compensation;
    contingent_alternates;
    coop_permits;
    cross_locks;
    cd_chain;
    stale_permit_chain;
    delegate_pending;
    escrow_bounds;
    snapshot_reader;
    agent_speculation;
    agent_handoff;
    oltp_mini;
  ]

let by_name name = List.find_opt (fun s -> String.equal s.name name) all
