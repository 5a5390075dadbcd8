(** Agentic tool-use transactions: an agent workflow's tool calls as
    ASSET extended transactions (the Atomix shape from PAPERS.md).

    Each agent executes a generated {!plan} — a sequence of tool
    steps — as a saga: every compensable step is its own committing
    transaction with a registered compensation, and a failed step
    compensates the committed prefix in reverse order.  Speculative
    tool calls run as contingent alternates under pairwise EXC
    dependencies (the first success force-aborts its siblings),
    sub-agent handoff transfers a child's effects — including its
    escrow reservations — to the adopting step via [delegate], and
    context gathering runs on a lock-free multi-version snapshot.
    Timeliness comes from [lock_wait_timeout_steps] plus typed retry:
    every step transaction runs under {!Workload.retry}, so only
    {!Workload.retryable} aborts are retried, with seeded backoff.

    Tool effects land on real engine objects: an escrow-bounded token
    {!budget}, an append-only {!audit} queue, and shared {!doc}
    cells — so concurrent agents contend exactly like any other
    workload and every run can be replayed through the oracle.  The
    runner returns the {!contract} a conformance harness needs:
    (component, compensation) pairs for the compensation-order
    checker, EXC alternate groups for exclusivity, and delegation
    edges. *)

module E = Asset_core.Engine
module Oid = Asset_util.Id.Oid
module Tid = Asset_util.Id.Tid
module Rng = Asset_util.Rng

val site_tool : Asset_fault.Fault.site
(** Fault-injection point hit at the start of every tool effect (calls,
    speculation alternates, sub-agent bodies); arm it with
    [Fail_prob] for the faulted conformance runs. *)

exception Tool_failed of string
(** A non-retryable tool error — the plan's [fail_at] failure; the saga
    compensates rather than retries. *)

(** {2 The agent world} *)

val budget : Oid.t
(** Escrow-guarded token budget (int, bounded below by 0). *)

val audit : Oid.t
(** Append-only audit log (queue of ["call:<tool>"] / ["undo:<tool>"]
    items). *)

val doc : int -> Oid.t
(** Shared document cells the tools read and write. *)

val setup : Asset_storage.Store.t -> docs:int -> budget0:int -> unit
(** Populate budget, audit and [docs] document cells. *)

(** {2 Plans} *)

type step =
  | Call of { tool : string; cost : int; d : int }
      (** A compensable tool call: escrow-debit [cost], write doc [d],
          append ["call:tool"] to the audit log.  Its compensation
          refunds the cost (commuting increment), tombstones the doc
          and appends ["undo:tool"]. *)
  | Speculate of { tool : string; costs : int list; d : int; winner : int }
      (** Speculative tool calls: one alternative per cost, pairwise
          EXC, tried in order; alternatives before [winner] fail after
          doing their (rolled-back) work.  Exactly one commits. *)
  | Handoff of { tool : string; cost : int; d : int }
      (** Sub-agent handoff: a child transaction does the work, then
          delegates everything — locks, logged updates, escrow
          reservations — to the adopting step transaction, which
          commits it. *)
  | Gather of { tool : string; ds : int list }
      (** Context gathering: a read-only snapshot transaction reads the
          listed docs lock-free. *)

type plan = {
  agent : int;
  steps : step list;
  fail_at : int option;
      (** Step index whose tool call fails (a non-retryable tool
          error): the saga compensates the committed prefix in reverse
          order and the plan stops. *)
}

val gen_plan : rng:Rng.t -> docs:int -> agent:int -> plan
(** A seeded random plan: 2–6 steps mixing all four shapes, ~1/3 of
    plans failing at a random step. *)

(** {2 Contracts and outcomes} *)

type contract = {
  comp_pairs : (Tid.t * Tid.t) list;
      (** (component, compensation) in saga-forward order, for
          [Oracle.check_compensation_order]. *)
  exclusive : Tid.t list list;
      (** Each speculation's alternates: at most one commits. *)
  delegations : (Tid.t * Tid.t) list;
      (** (sub-agent, adopting step) pairs. *)
}

val merge_contracts : contract list -> contract

type outcome = {
  o_committed : int;  (** committed tool-step transactions *)
  o_compensated : int;  (** committed compensation transactions *)
  o_retries : int;  (** typed retries of transient step aborts *)
  o_gave_up : int;
      (** steps refused by [max_transactions] or abandoned after the
          retry budget; a tool error is not a give-up *)
  o_failed : bool;  (** the plan ended in rollback *)
  o_spend : int;
      (** Net committed budget debits (refunds subtracted): the store's
          budget must equal [budget0 - sum of o_spend]. *)
  o_audit : int;
      (** Committed audit appends: the audit queue must hold exactly
          [sum of o_audit] items. *)
  o_contract : contract;
}

val run_plan : ?max_retries:int -> rng:Rng.t -> E.t -> plan -> outcome
(** Execute one plan.  Must run inside a runtime fiber. *)

val run_agents :
  ?max_retries:int -> E.t -> seed:int -> agents:int -> docs:int -> outcome list
(** One fiber per agent, each running its own seeded plan
    concurrently; returns the outcomes in agent order.  Must run
    inside a runtime fiber. *)

val total_spend : outcome list -> int

val total_audit : outcome list -> int
