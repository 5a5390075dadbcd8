(** Bounded scenarios for the systematic explorer ({!Explore}).

    A scenario packages a fresh-world setup — store size, engine
    configuration, a main program driving N transactions of K
    operations (plus delegate/permit/abort actions) to quiescence —
    with the oracle checkers its terminal histories must satisfy.
    Scenario programs must be deterministic given the scheduler's
    choices: no wall clock, no ambient randomness.

    The canned scenarios cover the paper's section-3 constructions
    (split/join, sagas, contingent alternates, cooperating groups) and
    the adversarial shapes the mutation self-validation needs. *)

module E = Asset_core.Engine
module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle

type t = {
  name : string;
  objects : int;  (** store pre-populated with oids [0, objects) at value 0 *)
  config : E.config;
  main : E.t -> unit;  (** runs as the root fiber, once per explored schedule *)
  checks : Trace.entry list -> Oracle.violation list;
      (** oracle bundle a terminal history must satisfy; invoked
          immediately after each run, so scenarios may thread run-local
          contract state (groups, compensation pairs) through refs *)
}

val make :
  ?objects:int ->
  ?config:E.config ->
  ?checks:(Trace.entry list -> Oracle.violation list) ->
  name:string ->
  (E.t -> unit) ->
  t

(** {2 Step DSL}

    Transaction bodies as flat operation lists; every operation is
    followed by a yield, so each op boundary is a scheduler choice
    point. *)

type step =
  | R of int  (** read object *)
  | W of int * int  (** write object := value *)
  | I of int * int  (** increment object by delta *)
  | Y  (** bare yield *)

val body : E.t -> step list -> unit -> unit

val run_txns : E.t -> step list list -> Asset_util.Id.Tid.t list
(** Initiate one transaction per step list, begin them all, commit each
    from its own committer fiber, and park until all terminated. *)

(** {2 Canned scenarios} *)

val handoff : t
(** Two writers hand one object over; doubles as the no-lost-wakeup
    property workout. *)

val disjoint_writers : t
(** Writers on different objects: where sleep-set pruning pays. *)

val split_handoff : t
(** Section 3.1.5 split/join: delegation mid-transaction, independent
    commits. *)

val saga_compensation : t
(** Section 3.1.6: middle step fails; committed prefix compensates in
    reverse order (checked by the compensation-order contract). *)

val contingent_alternates : t
(** Section 3.1.3: first alternative aborts, second commits, at most
    one ever commits. *)

val coop_permits : t
(** Section 3.2.1: mutual permits + group-commit coupling; checked
    against the cooperative bundle plus group atomicity. *)

val cross_locks : t
(** Opposite-order lock acquisition: the deadlock-detection workout. *)

val cd_chain : t
(** Commit dependency with racing committers: the CD-discharge
    workout. *)

val stale_permit_chain : t
(** Transitive permit chain through a transaction that aborts: the
    [remove_permits] workout. *)

(** {2 Seeded bugs}

    Mutated main programs for the mutation self-validation: each is its
    kill scenario's main with the bug written into the scenario rather
    than the engine. *)

val cd_chain_dropping_edge : E.t -> unit
(** [cd_chain]'s main emitting the CD [Trace.Dep] event without forming
    the edge, so the dependent's commit never waits for the master. *)

val stale_permit_chain_keeping_permits : E.t -> unit
(** [stale_permit_chain]'s main restoring, without a trace event, the
    two permits the middleman's abort removed. *)

val delegate_pending : t
(** Delegation racing a pending lock request (the PR-2
    withdraw-pending behaviour), end-to-end. *)

val escrow_bounds : t
(** Two escrow deltas whose worst case escapes the bound: exactly one
    commits in every schedule; the 'E' footprint workout. *)

val snapshot_reader : t
(** A read-only snapshot reader racing writers: never blocks or
    aborts; the snapshot-visibility axiom and 'S' footprint workout. *)

val agent_speculation : t
(** One agentic speculation (two EXC alternates, first fails): exactly
    one commits in every schedule and budget conservation holds. *)

val agent_handoff : t
(** One sub-agent handoff: the child's escrow reservation survives
    delegation into the adopting step's commit. *)

val oltp_mini : t
(** A three-class OLTP miniature (new-order, payment, delivery): the
    money and goods conservation laws hold in every schedule. *)

val all : t list
val by_name : string -> t option
