(** The lock manager: object descriptors (OD), lock request descriptors
    (LRD) and permit descriptors (PD), implementing the section-4.2
    read-lock / write-lock algorithm including permit-driven suspension
    of conflicting granted locks.

    The paper's Figure 1 shows an OD pointing at three lists — granted
    requests, pending requests, permissions; an OD is exactly those
    three lists, and {!pp_od} renders them.  Each LRD is also reachable
    from its transaction (per-transaction oid → lrd tables for held and
    pending requests), and PDs are doubly indexed by grantor and grantee
    tid.  Permission is transitive with operation-set intersection
    (permit rule 3), decided by a search over the OD's permit list.

    An OD is dropped as soon as its three lists are empty, so the lock
    table holds only objects with a live lock, request or permit: once
    every transaction has terminated it is empty.  The three lists
    fully determine who waits for whom, so the waits-for graph is not
    stored: {!waits_for}, {!waits_edges} and {!find_cycle} derive it on
    demand from the pending requests, at a cost that depends on those
    requests only. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid

type lock_status =
  | Granted
  | Suspended
      (** Held, but a permitted conflicting lock is currently active;
          resumes when the conflict goes away. *)
  | Pending
  | Upgrading

val pp_status : Format.formatter -> lock_status -> unit

type t

val create : unit -> t

(** {2 Acquisition} *)

type outcome =
  | Acquired
  | Blocked_on of Tid.t list
      (** The conflicting holders; the request is registered in the
          OD's pending list and should be retried after a state
          change. *)

val acquire : t -> Tid.t -> Oid.t -> Mode.t -> outcome
(** The section-4.2 algorithm: own covering unsuspended lock — success;
    conflicting locks excused by permits suspend their holders;
    otherwise block. *)

val grantable : t -> Tid.t -> Oid.t -> Mode.t -> bool
(** Would {!acquire} succeed now, by step 1a or 1b?  Side-effect free:
    no suspension, no pending request, no counter or trace event.  It
    uses the same blocking predicate as {!acquire} and {!waits_for}, so
    a parked requester can wait on it. *)

val cancel_pending_all : t -> Tid.t -> unit

(** {2 Permits} *)

val add_permit :
  t -> grantor:Tid.t -> grantee:Tid.t option -> oid:Oid.t -> ops:Mode.Ops.t -> unit
(** [grantee = None] permits any transaction.  Empty operation sets are
    ignored. *)

val remove_permits : t -> Tid.t -> unit
(** Drop permissions given by and given to a transaction (commit step
    6 / abort cleanup). *)

val accessible_objects : t -> Tid.t -> Oid.t list
(** Objects the transaction has locked or been permitted on — the
    expansion set of the blanket permit forms. *)

(** {2 Release and delegation} *)

val release_all : t -> Tid.t -> Oid.t list
(** Release every lock held by a transaction; suspended locks of other
    transactions resume where possible.  Returns the released oids. *)

val delegate : t -> from_:Tid.t -> to_:Tid.t -> Oid.t list option -> Oid.t list
(** Move LRDs on the given objects ([None] = all) from [from_] to
    [to_], merging with [to_]'s existing locks (stronger mode wins),
    and rewrite PDs granted by [from_] to be granted by [to_].
    [from_]'s pending requests on the delegated objects are withdrawn
    (a blocked requester re-registers on retry), so no orphaned pending
    entries or stale waits-for edges survive.  Returns the moved
    oids. *)

(** {2 Introspection} *)

val holds : t -> Tid.t -> Oid.t -> (Mode.t * lock_status) option
val lock_count : t -> Tid.t -> int

val has_pending : t -> bool
(** Does any transaction have a pending (blocked or upgrading) request?
    O(1). *)

val is_pending : t -> Tid.t -> Oid.t -> bool
(** Does [tid] have a pending request on [oid]?  A delegation withdraws
    the delegator's pending requests. *)

val waits_for : t -> (Tid.t * Tid.t) list
(** The distinct waits-for edges (requester, holder), sorted: each
    pending request waits for the granted or suspended holders whose
    locks conflict with it and do not permit it.  Derived from the
    pending requests on every call. *)

val waits_edges : t -> int
(** The number of {!waits_for} edges. *)

val find_cycle : t -> Tid.t list option
(** A deadlock cycle in the {!waits_for} graph, if any.  The search
    visits waiters and their holders in tid order, so the cycle found
    depends only on the lock state; it returns at once when nothing is
    pending. *)

val stats : t -> (string * int) list
(** Includes [waits_edges] (the current graph's size), [ods] (live
    object descriptors) and [cycle_checks] (deadlock searches run).  A
    pure read: no counter is reset by reading. *)

val reset_stats : t -> unit
(** Reset every statistics {e counter} to zero.  [waits_edges] and
    [ods] are gauges derived from the lock state, not counters. *)

val pp_od : t -> Format.formatter -> Oid.t -> unit
(** Render an object descriptor in the shape of the paper's Figure 1. *)

val granted_of : t -> Oid.t -> (Tid.t * Mode.t * lock_status) list
val pending_of : t -> Oid.t -> (Tid.t * Mode.t * lock_status) list
val permits_of : t -> Oid.t -> (Tid.t * Tid.t option * Mode.Ops.t) list
