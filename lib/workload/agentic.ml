(* Agentic tool-use transactions: see agentic.mli.

   The runner is the Atomix mapping, built directly on the engine
   primitives so each construct's transaction ids can be captured for
   the conformance contract:

   - a compensable tool call is one committing transaction per
     attempt, with a registered compensation transaction run (and
     retried) during rollback — saga semantics with [Workload.retry]
     as the typed-retry loop;
   - speculative calls form pairwise EXC dependencies (the declarative
     contingent-transaction translation) and are tried in order;
   - handoff initiates a sub-agent transaction that performs the work
     and then [delegate]s everything — locks, logged updates, escrow
     reservations — to the adopting step transaction;
   - gathering runs on a read-only multi-version snapshot.

   Determinism: everything is driven by the caller's RNG, so a seeded
   run replays exactly under the seeded scheduler. *)

module E = Asset_core.Engine
module Oid = Asset_util.Id.Oid
module Tid = Asset_util.Id.Tid
module Rng = Asset_util.Rng
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Sched = Asset_sched.Scheduler

let site_tool = Asset_fault.Fault.register "agentic.tool"

exception Tool_failed of string
(* A non-retryable tool error: the model's "the API said no", as
   opposed to transient contention.  [Workload.retryable] returns
   false for it, so the saga rolls back instead of retrying. *)

let budget = Oid.of_int 1
let audit = Oid.of_int 2
let doc d = Oid.of_int (10 + d)

let setup store ~docs ~budget0 =
  Store.write store budget (Value.of_int budget0);
  Store.write store audit (Value.of_queue []);
  for d = 0 to docs - 1 do
    Store.write store (doc d) (Value.of_int 0)
  done

type step =
  | Call of { tool : string; cost : int; d : int }
  | Speculate of { tool : string; costs : int list; d : int; winner : int }
  | Handoff of { tool : string; cost : int; d : int }
  | Gather of { tool : string; ds : int list }

type plan = { agent : int; steps : step list; fail_at : int option }

let gen_plan ~rng ~docs ~agent =
  let n = 2 + Rng.int rng 5 in
  let steps =
    List.init n (fun i ->
        let tool kind = String.concat "" [ "a"; string_of_int agent; ".s"; string_of_int i; "."; kind ] in
        let pick_doc () = Rng.int rng docs in
        match Rng.int rng 100 with
        | r when r < 40 -> Call { tool = tool "call"; cost = 1 + Rng.int rng 8; d = pick_doc () }
        | r when r < 65 ->
            let alts = 2 + Rng.int rng 2 in
            Speculate
              {
                tool = tool "spec";
                costs = List.init alts (fun _ -> 1 + Rng.int rng 8);
                d = pick_doc ();
                winner = Rng.int rng alts;
              }
        | r when r < 85 -> Handoff { tool = tool "handoff"; cost = 1 + Rng.int rng 8; d = pick_doc () }
        | _ ->
            let k = 1 + Rng.int rng 3 in
            Gather { tool = tool "gather"; ds = List.init k (fun _ -> pick_doc ()) })
  in
  let fail_at = if Rng.int rng 3 = 0 then Some (Rng.int rng n) else None in
  { agent; steps; fail_at }

type contract = {
  comp_pairs : (Tid.t * Tid.t) list;
  exclusive : Tid.t list list;
  delegations : (Tid.t * Tid.t) list;
}

let merge_contracts cs =
  {
    comp_pairs = List.concat_map (fun c -> c.comp_pairs) cs;
    exclusive = List.concat_map (fun c -> c.exclusive) cs;
    delegations = List.concat_map (fun c -> c.delegations) cs;
  }

type outcome = {
  o_committed : int;
  o_compensated : int;
  o_retries : int;
  o_gave_up : int;
  o_failed : bool;
  o_spend : int;
  o_audit : int;
  o_contract : contract;
}

(* Mutable per-plan state threaded through the step runners. *)
type st = {
  db : E.t;
  rng : Rng.t;
  max_retries : int;
  mutable committed : int;
  mutable compensated : int;
  mutable retries : int;
  mutable gave_up : int;
  mutable spend : int;
  mutable audits : int;
  mutable pairs : (Tid.t * Tid.t) list; (* reverse forward order *)
  mutable exclusive : Tid.t list list;
  mutable delegations : (Tid.t * Tid.t) list;
  (* The committed prefix: (component tid, cost refunded on
     compensation, compensation body) — newest first, i.e. already in
     compensation order. *)
  mutable undo_stack : (Tid.t * int * string) list;
}

(* Run one attempt function under [Workload.retry], keeping the plan's
   retry and give-up counts.  A non-retryable failure (a tool error)
   comes back as [Failed]; it stops the plan without counting as a
   give-up. *)
let with_retry st attempt =
  let outcome, retries = Workload.retry ~max_retries:st.max_retries ~rng:st.rng st.db attempt in
  st.retries <- st.retries + retries;
  (match outcome with Workload.Gave_up -> st.gave_up <- st.gave_up + 1 | _ -> ());
  outcome

(* The forward effect of a plain tool call; shared by Call alternates
   and the sub-agent's half of Handoff. *)
let tool_effect st ~tool ~cost ~d ~fail () =
  Asset_fault.Fault.hit site_tool;
  E.escrow st.db budget (-cost) ~lo:0 ~hi:max_int;
  Sched.yield ();
  E.write st.db (doc d) (Value.of_int cost);
  Sched.yield ();
  E.enqueue st.db audit ("call:" ^ tool);
  if fail then raise (Tool_failed tool)

let record_commit st ~tid ~tool ~cost =
  st.committed <- st.committed + 1;
  st.spend <- st.spend + cost;
  st.audits <- st.audits + 1;
  st.undo_stack <- (tid, cost, tool) :: st.undo_stack

(* One compensation: refund the cost (commuting increment — it can
   never deadlock), tombstone nothing, append the undo marker.
   Retried until it commits or the attempt budget runs out; an
   uncommitted compensation simply leaves the cost spent, which the
   conservation accounting reflects. *)
let compensate st (component, cost, tool) =
  let r =
    with_retry st
      (Workload.atomic st.db (fun () ->
           E.increment st.db budget cost;
           E.enqueue st.db audit ("undo:" ^ tool)))
  in
  match r with
  | Workload.Committed ctid ->
      st.compensated <- st.compensated + 1;
      st.spend <- st.spend - cost;
      st.audits <- st.audits + 1;
      st.pairs <- (component, ctid) :: st.pairs
  | Gave_up | Failed _ -> ()

let rollback st =
  let stack = st.undo_stack in
  st.undo_stack <- [];
  List.iter (compensate st) stack

(* --- the four step shapes --- *)

let run_call st ~tool ~cost ~d ~fail =
  match with_retry st (Workload.atomic st.db (tool_effect st ~tool ~cost ~d ~fail)) with
  | Workload.Committed t ->
      record_commit st ~tid:t ~tool ~cost;
      `Ok
  | Gave_up | Failed _ -> `Stop

(* Speculative alternates: initiate them all, form pairwise EXC
   dependencies (declarative at-most-one), then try in order; the
   committing alternative's siblings are doomed by the dependency
   graph.  Alternatives before [winner] fail after doing their
   (rolled-back) work, modelling a speculative call that came back
   unusable. *)
let alt_tool tool i = tool ^ "." ^ string_of_int i

let run_speculate st ~tool ~costs ~d ~winner ~fail =
  let alts = Array.of_list costs in
  let tids = Array.make (Array.length alts) Tid.null in
  let mk i cost =
    E.initiate st.db (fun () ->
        tids.(i) <- E.self st.db;
        tool_effect st ~tool:(alt_tool tool i) ~cost ~d
          ~fail:(i < winner || (fail && i = winner))
          ())
  in
  let ts = Array.mapi mk alts in
  if Array.exists Tid.is_null ts then `Stop
  else begin
    Array.iteri
      (fun i a ->
        Array.iteri
          (fun j b ->
            if i < j then
              ignore (E.form_dependency st.db Asset_deps.Dep_type.EXC a b))
          ts)
      ts;
    st.exclusive <- Array.to_list ts :: st.exclusive;
    let rec try_next i =
      if i >= Array.length ts then `Lost
      else if E.begin_ st.db ts.(i) && E.commit st.db ts.(i) then begin
        record_commit st ~tid:ts.(i) ~tool:(alt_tool tool i) ~cost:alts.(i);
        `Ok
      end
      else try_next (i + 1)
    in
    match try_next 0 with
    | `Ok -> `Ok
    | `Lost -> `Stop
  end

(* Sub-agent handoff: the child performs the tool effect and delegates
   everything to the adopting step transaction, which commits it.  The
   child commits an empty shell.  Escrow reservations move with the
   delegation — the property tests pin that the refund contract then
   binds the adopter, not the child. *)
let run_handoff st ~tool ~cost ~d ~fail =
  let child = ref Tid.null in
  (* One attempt: the adopter [p] if the child committed (its commit
     decides the attempt), else the child, whose failure decides
     whether to retry. *)
  let attempt () =
    let p = E.initiate st.db (fun () -> E.enqueue st.db audit ("call:" ^ tool)) in
    if Tid.is_null p then p
    else begin
      let s =
        E.initiate st.db (fun () ->
            Asset_fault.Fault.hit site_tool;
            E.escrow st.db budget (-cost) ~lo:0 ~hi:max_int;
            Sched.yield ();
            E.write st.db (doc d) (Value.of_int cost);
            Sched.yield ();
            E.delegate st.db ~from_:(E.self st.db) ~to_:p;
            if fail then raise (Tool_failed tool))
      in
      child := s;
      if (not (Tid.is_null s)) && E.begin_ st.db s && E.commit st.db s then begin
        (* If the adopter fails, the reservation dies with it. *)
        ignore (E.begin_ st.db p && E.commit st.db p);
        p
      end
      else begin
        (* The child was refused, or aborted before its delegation took
           effect: the adopter has nothing and is cancelled. *)
        ignore (E.abort st.db p);
        s
      end
    end
  in
  match with_retry st attempt with
  | Workload.Committed p ->
      st.delegations <- (!child, p) :: st.delegations;
      record_commit st ~tid:p ~tool ~cost;
      `Ok
  | Gave_up | Failed _ -> `Stop

(* Context gathering on a multi-version snapshot: lock-free, so it
   needs no retry and cannot fail the plan. *)
let run_gather st ~tool:_ ~ds =
  let t =
    E.initiate ~read_only:true st.db (fun () ->
        List.iter
          (fun d ->
            ignore (E.read st.db (doc d));
            Sched.yield ())
          ds)
  in
  if Tid.is_null t then `Ok
  else begin
    ignore (E.begin_ st.db t);
    if E.commit st.db t then st.committed <- st.committed + 1;
    `Ok
  end

let run_plan ?(max_retries = 4) ~rng db plan =
  let st =
    {
      db;
      rng;
      max_retries;
      committed = 0;
      compensated = 0;
      retries = 0;
      gave_up = 0;
      spend = 0;
      audits = 0;
      pairs = [];
      exclusive = [];
      delegations = [];
      undo_stack = [];
    }
  in
  let failed = ref false in
  (try
     List.iteri
       (fun i step ->
         let fail = plan.fail_at = Some i in
         let r =
           match step with
           | Call { tool; cost; d } -> run_call st ~tool ~cost ~d ~fail
           | Speculate { tool; costs; d; winner } -> run_speculate st ~tool ~costs ~d ~winner ~fail
           | Handoff { tool; cost; d } -> run_handoff st ~tool ~cost ~d ~fail
           | Gather { tool; ds } -> run_gather st ~tool ~ds
         in
         match r with
         | `Ok -> ()
         | `Stop ->
             failed := true;
             raise Exit)
       plan.steps
   with Exit -> ());
  if !failed then rollback st;
  {
    o_committed = st.committed;
    o_compensated = st.compensated;
    o_retries = st.retries;
    o_gave_up = st.gave_up;
    o_failed = !failed;
    o_spend = st.spend;
    o_audit = st.audits;
    o_contract =
      {
        comp_pairs = List.rev st.pairs;
        exclusive = List.rev st.exclusive;
        delegations = List.rev st.delegations;
      };
  }

let run_agents ?(max_retries = 4) db ~seed ~agents ~docs =
  let outcomes = Array.make agents None in
  let done_ = ref 0 in
  for a = 0 to agents - 1 do
    let rng = Rng.create (seed + (a * 7919)) in
    let plan = gen_plan ~rng ~docs ~agent:a in
    E.spawn db ~label:("agent-" ^ string_of_int a) (fun () ->
        let o = run_plan ~max_retries ~rng db plan in
        outcomes.(a) <- Some o;
        incr done_)
  done;
  (* Park until every agent fiber finished; agents run their own
     transactions to completion, so quiescence of the scheduler is
     reached exactly when all are done. *)
  Sched.park ~reason:"agents-done" (fun () -> !done_ >= agents);
  Array.to_list outcomes |> List.filter_map Fun.id

let total_spend os = List.fold_left (fun acc o -> acc + o.o_spend) 0 os
let total_audit os = List.fold_left (fun acc o -> acc + o.o_audit) 0 os
