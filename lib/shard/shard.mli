(** Multicore sharded engine: OID-hash partitioning across OCaml 5
    domains with the paper's own distributed-transaction construction
    as the cross-shard commit protocol.

    Every shard is a complete, independent instance of the
    single-domain system — its own object store, lock manager,
    dependency graph, WAL and cooperative scheduler — running on its
    own domain, in the H-Store/Calvin style: all single-shard
    transactions execute with zero cross-domain synchronisation.  The
    only communication between domains is typed messages over bounded
    {!Channel} mailboxes.

    Cross-shard transactions are instances of the paper's distributed
    model (section 6 / [lib/models/distributed.ml]): on each involved
    shard the coordinator installs a {e participant} transaction (the
    shard-local work) joined by a local GC dependency to a {e decision
    stub} transaction whose body merely awaits the coordinator's
    verdict.  Participant completion is the 2PC "prepared" vote —
    strict 2PL means its locks are held and its updates undoable;
    committing the stub then drags the participant through the
    engine's own group-commit machinery, and aborting it (explicit
    verdict, or {e presumed abort} when the mailbox closes with no
    verdict — the coordinator-crash case) aborts the participant by GC
    propagation.  Group atomicity across shards therefore reduces to
    [form_dependency GC] plus one message in each direction.

    The coordinator stitches the per-shard stubs together with "XGC"
    [Dep] trace events, so a merged history ({!merged_trace}) carries
    the cross-shard obligation and the oracle can check it
    (both-or-neither across separate per-shard Commit events). *)

module E = Asset_core.Engine
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Trace = Asset_obs.Trace

type t

val default_engine_config : E.config
(** {!E.default_config} with [max_transactions] effectively unbounded
    and [lock_wait_timeout_steps] armed: a participant holding
    prepared locks can block another cross-shard transaction's
    participant on a {e different} shard, a waits-for pattern no
    single shard's deadlock detector can see, so the lock-wait timeout
    is the distributed-deadlock liveness backstop. *)

val create :
  ?engine_config:E.config ->
  ?inbox_capacity:int ->
  ?trace:bool ->
  ?trace_capacity:int ->
  ?max_steps:int ->
  ?objects:int ->
  ?init:(int -> Asset_storage.Value.t) ->
  domains:int ->
  unit ->
  t
(** Spawn [domains] shard servers, each on its own domain.  Objects
    1..[objects] are pre-populated, each on its home shard
    ({!shard_of}) only.  With [~trace:true] every shard domain runs
    its own {!Trace} recorder (shard ids 1..n) and a driver-side
    recorder (shard 0, capturing the coordinator's XGC events) is
    installed if the calling domain has none; {!merged_trace} combines
    them after {!shutdown}. *)

val domains : t -> int

val shard_of : t -> Oid.t -> int
(** The partition function: [Oid.to_int oid mod domains]. *)

val engine : t -> int -> E.t
(** Shard [i]'s engine — only for inspection from the driver once the
    system is idle ({!drain}) or stopped ({!shutdown}); engines are
    domain-local while running. *)

val submit : ?max_retries:int -> t -> shard:int -> (E.t -> unit) -> unit
(** Enqueue a single-shard transaction: the body runs under
    [Workload.retry] on the shard's engine — retried up to
    [max_retries] (default 10) times on [Workload.retryable] aborts,
    with seeded backoff from a per-shard RNG seeded by the shard id.
    Blocks when the shard's inbox is full — backpressure, not an
    error. *)

val pending : t -> int
(** Submitted single-shard transactions not yet finished. *)

val drain : t -> unit
(** Block until {!pending} is zero.  Re-raises a shard server failure
    if one occurred. *)

val shutdown : t -> unit
(** Close every inbox (waking blocked shards; undecided cross-shard
    transactions are presumed aborted), join the domains, stop the
    recorders.  Idempotent.  Re-raises the first shard server failure,
    if any. *)

val merged_trace : t -> Trace.entry list
(** The per-shard histories and the driver lane merged into one
    oracle-replayable history ({!Trace.merge}).  Call after
    {!shutdown}. *)

val stats : t -> (string * int) list
(** Engine counters summed across shards, plus mailbox counters under
    ["chan."].  Exact only once idle or stopped. *)

(** {2 Cross-shard transactions} *)

module Coord : sig
  type coord
  (** A 2PC coordinator over the sharded engine.  It lives on the
      driving domain: {!submit} registers participants,
      {!try_step}/{!drain} process votes from its reply mailbox.  A group
      is decided, and acknowledged, once every participant has voted:
      the verdict then travels to the shards, but no reply comes back
      unless a shard's result disagrees with it.  Multiple
      transactions are kept in flight, capped at [max_inflight]
      undecided groups. *)

  val decide_site : string
  (** Failpoint name ("shard.coord.decide") hit between collecting the
      last vote and counting the group or sending any verdict — the
      classic 2PC coordinator-crash window.  Arm it with [Fault] to
      test presumed abort. *)

  val create : ?max_inflight:int -> ?max_retries:int -> ?ordered:bool -> t -> coord
  (** With [~ordered:true] participants are dispatched serially, each
      only after the previous one's prepare vote, in the caller's list
      order.  Callers that order every group's participants by a
      global criterion (least object id touched, say) get total-order
      lock acquisition: no group holds a later-ordered lock while
      waiting on an earlier one, so cross-shard transactions cannot
      form a distributed deadlock — at the price of one verdict-
      latency round per extra participant.  Default is parallel
      dispatch. *)

  val submit : coord -> (int * (E.t -> unit)) list -> unit
  (** Register one cross-shard transaction: a participant body per
      (distinct) shard.  Blocks processing replies while [max_inflight]
      groups are undecided.  A group that aborts with only
      [Workload.retryable] failures in its votes (the transient
      contention outcomes: lock-wait timeout, deadlock victim; a
      prepared participant reports none) is relaunched up to
      [max_retries] (default 10) times before counting as {!aborted};
      a real body failure or a refusal at the shard's transaction
      bound counts at once.  The coordinator emits its XGC decision
      record only for Commit verdicts — 2PC presumed abort: aborts
      leave no decision record.  Under [ordered], list order is
      dispatch (hence lock-acquisition) order. *)

  val drain : coord -> unit
  (** Process replies until every submitted transaction is decided;
      each is then already counted in {!committed} or {!aborted}.  The
      shards may still be applying the last verdicts: each applies a
      verdict before it takes its next message.  Propagates an armed
      {!decide_site} crash. *)

  val try_step : coord -> bool
  (** Process one pending reply without blocking; [false] when none
      was waiting.  Interleave with other driver work so verdicts keep
      flowing while e.g. a single-shard drain is in progress. *)

  val inflight_count : coord -> int
  (** Cross-shard transactions not yet decided. *)

  val replies : coord -> int
  (** Replies processed so far: one vote per dispatched participant,
      plus an Outcome for each participant whose result disagreed
      with the verdict. *)

  (** The counters below first process the replies already queued, so
      they are exact once {!Shard.shutdown} has returned. *)

  val committed : coord -> int
  (** Cross-shard transactions decided Commit, less those that moved
      to {!mixed}. *)

  val aborted : coord -> int
  (** Cross-shard transactions decided Abort and not relaunched. *)

  val mixed : coord -> int
  (** Transactions decided Commit whose commit failed on some
      participant — atomicity violations; must be zero. *)
end
