(** The ASSET engine: the complete primitive set of section 2 over the
    section-4 substrate (lock manager with permits, dependency graph,
    before/after-image log, object store).

    {2 Concurrency model}

    Every transaction body runs in a cooperative fiber
    ([Asset_sched.Scheduler]); a primitive that must block parks its
    fiber and retries on the next engine state change — the literal
    "blocks and retries later starting at step 1" of the paper's
    algorithms.  All primitives must be called from inside
    {!Runtime.run}: the application's main program is itself a fiber.

    Unless a permit says otherwise, data operations follow strict
    two-phase locking: locks are held until commit or abort.  Deadlocks
    are detected on scheduler stalls and resolved by aborting the
    youngest transaction in the waits-for cycle. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store

exception Txn_aborted of Tid.t
(** Raised inside a transaction body whose transaction has been aborted
    (by itself, by dependency propagation, or as a deadlock victim);
    unwinds the body back to the engine.  User code should normally let
    it propagate. *)

exception Not_in_transaction
(** A data operation was invoked outside any transaction body. *)

exception Lock_timeout of Tid.t * Oid.t
(** A lock request stalled past [lock_wait_timeout_steps] retry rounds;
    the requester aborted itself with this as its {!failure_of} reason
    — distinguishable from a deadlock victim (whose failure is
    [None]). *)

exception Escrow_violation of Tid.t * Oid.t
(** An {!escrow} operation's worst-case bound analysis failed: no
    completion order of the in-flight escrow deltas keeps the counter
    inside the requested interval.  The operation aborted its
    transaction with this as its {!failure_of} reason — a transient,
    retryable failure (headroom returns as in-flight deltas resolve);
    escrow never blocks, because an escrow wait would be invisible to
    the lock-based deadlock detector. *)

exception Read_only_txn of Tid.t
(** A mutating operation (or explicit {!lock}) was invoked by a
    transaction opened with [~read_only:true]. *)

type t

type config = {
  max_transactions : int;  (** [initiate] returns the null tid beyond this. *)
  deadlock_detection : bool;
      (** Resolve lock deadlocks by aborting a victim; when off, a
          deadlock surfaces as [Scheduler.Deadlock]. *)
  lock_wait_timeout_steps : int;
      (** Abort a lock requester stalled past this many retry rounds
          with {!Lock_timeout} instead of hanging — the liveness
          backstop when [deadlock_detection] is off.  The scheduler's
          stall hook keeps retry rounds ticking while lock waiters
          exist.  0 (the default) disables. *)
  checkpoint_log_bytes : int;
      (** Take a fuzzy checkpoint (and retire dead WAL segments) from
          the commit path whenever this many framed log bytes have been
          appended since the last checkpoint.  Checked after each
          commit group; a checkpoint that fails with a storage fault is
          skipped (the commit it rode on stays durable) and the meter
          backs off one threshold.  0 (the default) disables. *)
}

val default_config : config

val create : ?config:config -> ?log:Asset_wal.Log.t -> ?tid_gen:Tid.gen -> Store.t -> t
(** An engine over [store]; [log] defaults to a fresh in-memory log
    (pass a {!Asset_wal.Log.create_dir} one for durability).  [tid_gen] defaults to a
    fresh 1,2,3,... generator; the shard layer passes a strided one
    ([Tid.generator ~start:(i+1) ~stride:n ()]) so transaction ids on
    different domains never collide. *)

(** {2 Basic primitives (section 2.1)} *)

val initiate : ?parent:Tid.t -> ?read_only:bool -> t -> (unit -> unit) -> Tid.t
(** Register a transaction that will execute the closure (the paper's
    [initiate(f, args)]: arguments are captured by the closure).
    [parent] defaults to the invoking transaction, or null at top
    level.  Returns the null tid when [max_transactions] is reached.
    The transaction does not start executing until {!begin_}.

    With [~read_only:true] the transaction runs against a multi-version
    snapshot pinned at its begin: every {!read} is lock-free and
    returns the newest version committed at or before the begin
    timestamp, so it can never block, deadlock, or be aborted by
    the concurrency control.  Mutating operations raise
    {!Read_only_txn}. *)

val begin_ : t -> Tid.t -> bool
(** Start execution (spawns the body's fiber).  False when the
    transaction is not in the initiated state or a begin-dependency
    master aborted. *)

val begin_many : t -> Tid.t list -> bool

val commit : t -> Tid.t -> bool
(** Commit, per section 4.2: blocks until the body completes, resolves
    CD/AD/EXC dependencies (blocking as required), runs the GC
    group-commit handshake, then atomically commits the group — commit
    record appended, locks released, permits and dependency edges
    dropped.  True when (already) committed; false when (already)
    aborted.

    The WAL acknowledgement rule: [commit] returns true only once the
    group's commit record is durable ({!Asset_wal.Log.forced_lsn}
    covers it).  The record is staged, not forced, and the caller
    parks; when no fiber can run, the scheduler's quiescence hook
    ({!flush_pending_commits}) forces every staged record with one
    force, so concurrent committers share it.  On an in-memory log the
    record counts as forced at once and nothing parks. *)

val wait : t -> Tid.t -> bool
(** Block until the transaction completes; true once it has completed
    (or committed), false if it aborted first. *)

val abort : t -> Tid.t -> bool
(** Abort, per section 4.2: undo from the log (physical before images;
    logical deltas for increments — note that permit-based cooperating
    updates are {e lost}, as the paper specifies), CLRs logged, locks
    and permits dropped, AD/GC dependents aborted recursively.  True
    unless the transaction had already committed.  Aborting the
    invoking transaction itself raises {!Txn_aborted} to unwind its
    body after the abort completes. *)

val self : t -> Tid.t
(** The invoking transaction's tid, or null outside a body. *)

val parent : t -> Tid.t

(** {2 New primitives (section 2.2)} *)

val delegate : ?oids:Oid.t list -> t -> from_:Tid.t -> to_:Tid.t -> unit
(** [delegate(t_i, t_j, ob_set)]: transfer responsibility for the
    operations [from_] performed on [oids] (default: everything) to
    [to_] — locks move (merging with [to_]'s), permits are re-granted
    by [to_], logged updates are re-attributed for both abort and
    recovery.  Both transactions must not have terminated; [to_] may
    still be only initiated. *)

val permit :
  ?to_:Tid.t -> ?oids:Oid.t list -> ?ops:Asset_lock.Mode.Ops.t -> t -> from_:Tid.t -> unit
(** [permit(t_i, t_j, ob_set, operations)] and its abbreviated forms:
    omit [to_] to permit every transaction, [oids] to cover every
    object [from_] has accessed or been permitted on, [ops] to permit
    all operations.  Permission is transitive with operation-set
    intersection (rule 3). *)

val form_dependency : t -> Asset_deps.Dep_type.t -> Tid.t -> Tid.t -> bool
(** [form_dependency ty t_i t_j] forms (ty, t_i, t_j); false when the
    edge would create a commit-wait cycle. *)

(** {2 Data operations} *)

val lock : t -> Oid.t -> Asset_lock.Mode.t -> unit
(** Acquire a lock (blocking) without touching the data — intent
    declaration for layers like {!Workspace} that want to avoid later
    upgrades. *)

val read : t -> Oid.t -> Value.t option
(** Read-lock (blocking), read.  In a [~read_only:true]
    transaction: a lock-free snapshot read at the begin timestamp
    instead. *)

val read_exn : t -> Oid.t -> Value.t

val write : t -> Oid.t -> Value.t -> unit
(** Write-lock (blocking), log before/after images, write.  The
    before-image read, log append and write run without a yield point
    in between, so no other fiber observes a half-applied update. *)

val modify : t -> Oid.t -> (Value.t option -> Value.t) -> unit
(** Read-modify-write (upgrades the lock). *)

val increment : t -> Oid.t -> int -> unit
(** A commuting increment (section-5 semantic concurrency): Increment
    locks are mutually compatible, so concurrent incrementers never
    block each other, and undo is logical — an abort preserves other
    transactions' concurrent increments.  Creates a missing object at
    the delta. *)

val escrow : t -> Oid.t -> int -> lo:int -> hi:int -> unit
(** A bounded commuting increment under escrow locking: accepted only
    when the committed value plus {e every} possible completion of the
    in-flight escrow deltas stays inside [[lo, hi]] — all positive
    deltas committing must not exceed [hi], all negative deltas
    committing must not fall below [lo] — so acceptance is independent
    of how concurrent transactions finish and Escrow locks stay
    mutually compatible.  When the worst case escapes the bounds the
    operation aborts its transaction with {!Escrow_violation} (raised
    as {!Txn_aborted}; see {!failure_of}) rather than blocking.
    Physically an increment: same logical undo, same recovery. *)

val enqueue : t -> Oid.t -> string -> unit
(** Append an item to a queue-typed object under the mutually
    compatible Enqueue lock mode: concurrent producers never block each
    other, and undo is logical (remove the item), so an abort preserves
    items enqueued concurrently by others.  Creates a missing object as
    a one-item queue.  Read the queue with {!read} +
    [Value.to_queue]. *)

(** {2 Savepoints}

    Partial rollback inside a transaction, built on the same
    before-image/CLR machinery as abort. *)

type savepoint

val savepoint : t -> savepoint
(** Mark the invoking transaction's current update history.  Must be
    called inside a transaction body. *)

val rollback_to : t -> savepoint -> unit
(** Undo (and CLR-log) every update the invoking transaction performed
    after the savepoint; locks acquired since are retained.  Updates
    delegated in after the savepoint but {e logged} before it are not
    undone.  Raises [Invalid_argument] when the savepoint belongs to
    another transaction. *)

(** {2 Status queries} *)

val status : t -> Tid.t -> Status.t
val is_terminated : t -> Tid.t -> bool
val is_aborted : t -> Tid.t -> bool
val is_committed : t -> Tid.t -> bool
val parent_of : t -> Tid.t -> Tid.t

val failure_of : t -> Tid.t -> exn option
(** The body exception that aborted the transaction, if any. *)

(** {2 Harness support} *)

val spawn : t -> label:string -> (unit -> unit) -> unit
(** Spawn an auxiliary (non-transaction) fiber, e.g. a per-transaction
    committer. *)

val await_terminated : t -> Tid.t list -> unit
(** Park until every listed transaction has terminated. *)

val checkpoint : t -> int
(** Non-quiescent (fuzzy) checkpoint: capture the active-transaction table
    (with per-update undo information) and the dirty OID set, write a
    [Begin_ckpt]/[End_ckpt] pair around a store flush, then retire WAL
    segments wholly below the begin LSN.  Safe while transactions run
    — the cooperative scheduler makes the captured table a consistent
    cut.  Returns the begin LSN (the redo watermark).  Also fired
    automatically from the commit path by [checkpoint_log_bytes]. *)

val flush_pending_commits : t -> unit
(** Force the log over any staged commit records and wake the
    committers parked on them.  Called automatically at every
    scheduler quiescence point (and thus before {!Runtime.run}
    returns); exposed for servers that drive their own scheduler. *)

val active_transactions : t -> Tid.t list
val transaction_count : t -> int
val version : t -> int

val mvcc_current_ts : t -> int
(** The newest commit timestamp in the version store. *)

val mvcc_max_chain : t -> int
(** Longest per-object version chain — the GC-bound observable. *)

val mvcc_version_count : t -> int
(** Total stored versions across all chains. *)

val store : t -> Store.t
val log : t -> Asset_wal.Log.t
val locks : t -> Asset_lock.Lock_manager.t
val deps : t -> Asset_deps.Dep_graph.t
val attach_scheduler : t -> Asset_sched.Scheduler.t -> unit

val resolve_stall : t -> bool
(** The engine's own stall step, as installed by {!attach_scheduler}:
    abort a deadlock victim, or tick the lock-wait timeout clock.
    Returns [true] when it made progress.  Exposed so an outer layer
    (the shard server) can compose it into a richer scheduler
    [on_stall] hook — mailbox first, then this, then block. *)

val escrow_inflight_count : t -> int
(** Distinct objects with an in-flight escrow reservation.  A leak
    gauge: zero once every transaction has terminated. *)

val note_retry : t -> unit
(** Count a harness-level transaction retry (surfaced as ["retries"]
    in {!stats}); called by the workload layer's bounded-retry
    combinator. *)

val note_give_up : t -> unit
(** Count a transaction abandoned after exhausting its retry budget
    (["gave_up"] in {!stats}). *)

val stats : t -> (string * int) list
(** Engine counters plus the lock manager's (["lock."] prefix) and the
    dependency graph's (["deps."] prefix).  A pure read: no counter is
    ever reset by reading — [reset_stats] is the one reset point. *)

val reset_stats : t -> unit
(** Reset every statistics counter — the engine's own and, through
    their [reset_stats], the lock manager's and dependency graph's.
    Gauges ([lock.waits_edges], [deps.live_edges]) track live data
    structures and are not touched. *)

val pp_stats : Format.formatter -> t -> unit
