(** Structured event traces: an append-only history of primitive
    invocations, lock transitions and WAL/recovery milestones with
    logical timestamps.

    The recorder is domain-local (one slot per OCaml domain, so each
    shard of the multicore engine traces without locks) and off by
    default; instrumented sites guard emission with
    [if Trace.on () then Trace.emit ...], so the untraced cost is one
    domain-local load and one branch per site (pinned by the
    E17/E18/E20 benches).  Per-shard histories are combined with
    {!merge} for the oracle. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid

type lock_action =
  | Request  (** lock asked for, outcome not yet known *)
  | Grant  (** request granted *)
  | Block  (** requester enqueued behind conflicting holders *)
  | Upgrade  (** granted lock strengthened in place *)
  | Release  (** granted lock dropped *)
  | Suspend  (** granted lock suspended by a permit-driven conflict *)
  | Resume  (** suspended lock re-granted *)
  | Transfer  (** ownership moved by delegation *)

type event =
  | Initiate of { tid : Tid.t; parent : Tid.t }
      (** [parent] is [Tid.null] for top-level transactions. *)
  | Begin of { tid : Tid.t }
  | Commit of { tids : Tid.t list; ts : int }
      (** The whole atomically-committed group in one event; [ts] is
          the commit timestamp stamped on the published versions (0
          when versioning is off or the history predates it). *)
  | Abort of { tid : Tid.t }
  | Op of { tid : Tid.t; oid : Oid.t; op : char }
      (** ['R'] | ['W'] | ['I'] | ['E'] (escrow) | ['Q'] (enqueue) *)
  | Snapshot of { tid : Tid.t; ts : int }
      (** A read-only transaction began against the snapshot at [ts]. *)
  | Snap_read of { tid : Tid.t; oid : Oid.t; ts : int }
      (** Lock-free snapshot read; [ts] is the commit timestamp of the
          version returned (0 = initial state). *)
  | Delegate of { from_ : Tid.t; to_ : Tid.t; moved : Oid.t list }
  | Permit of { from_ : Tid.t; to_ : Tid.t; oids : Oid.t list; ops : string }
      (** [to_ = Tid.null] permits any transaction; [ops] is a subset
          of ["RWI"]. *)
  | Dep of { dtype : string; master : Tid.t; dependent : Tid.t }
      (** [dtype] is {!Asset_deps.Dep_type.to_string}: ["CD"], ["AD"],
          ["GC"], ["BD"] or ["EXC"] — or ["XGC"], emitted by the shard
          coordinator for a cross-shard group-commit edge (both-or-
          neither across separate per-shard [Commit] events). *)
  | Lock of { tid : Tid.t; oid : Oid.t; mode : char; action : lock_action }
  | Wal_append of { lsn : int; kind : string }
  | Wal_force of { lsn : int }
  | Ckpt_begin of { lsn : int; active : int }
      (** A fuzzy checkpoint opened at [lsn], capturing [active]
          in-flight transactions. *)
  | Ckpt_end of { lsn : int; begin_lsn : int }
      (** The checkpoint opened at [begin_lsn] completed. *)
  | Wal_retire of { below : int; segments : int }
      (** [segments] log segments wholly below LSN [below] were
          retired (deleted after the manifest stopped naming them). *)
  | Recovery_start
  | Recovery_done of { winners : Tid.t list; losers : Tid.t list }
  | Sched_spawn of { fid : int; label : string }
  | Sched_stall

type entry = { seq : int; shard : int; ev : event }
(** [seq] is the logical timestamp: strictly increasing, assigned at
    emit time.  The scheduler is cooperative, so emit order is the real
    interleaving order within one shard.  [shard] is the emitting
    recorder's shard id — 0 for the classic single-engine setup (and
    omitted from the JSON encoding so old histories stay valid). *)

type sink =
  | Memory of entry list ref  (** accumulates the full history, newest first *)
  | Jsonl of out_channel  (** one JSON object per line *)

(** {1 The domain-local recorder} *)

val on : unit -> bool
(** Is a recorder installed on this domain?  The hot-path guard: one
    domain-local load, one compare. *)

val emit : event -> unit
(** Record an event (no-op when no recorder is installed on the calling
    domain). *)

val start : ?capacity:int -> ?shard:int -> ?sinks:sink list -> unit -> unit
(** Install this domain's recorder: a ring of [capacity] (default 4096)
    entries — the flight-recorder tail — fanning out to [sinks].
    Entries are stamped with [shard] (default 0); the sharded engine
    starts one recorder per domain with that shard's id. *)

val stop : unit -> unit
(** Uninstall this domain's recorder, flushing any JSONL sinks
    (channels are not closed — they belong to the caller). *)

val seq : unit -> int
(** Events emitted so far on this domain (0 when no recorder is
    installed). *)

val recent : unit -> entry list
(** The retained ring tail, oldest first: the last [capacity] events.
    The ring lives above the storage stack, so it survives a simulated
    power loss — this is the pre-crash history the recovery oracle
    replays. *)

val memory_sink : unit -> entry list ref * sink
val jsonl_sink : out_channel -> sink

val entries : entry list ref -> entry list
(** Collected entries of a memory sink, oldest first. *)

val with_memory : ?capacity:int -> ?shard:int -> (unit -> 'a) -> 'a * entry list
(** Run a thunk under a fresh memory-sink recorder; returns its result
    and the full history, oldest first.  Restores the previous recorder
    state afterwards, even on exception. *)

val merge : entry list list -> entry list
(** Interleave per-shard histories (each oldest first) into one
    history, renumbering [seq] from 1 while preserving every shard's
    internal order.  Per-shard logical clocks are dovetailed by [seq],
    which is a legal interleaving of the concurrent execution: shards
    share no engine state, so any order consistent with each shard's
    own history satisfies the same per-object and per-transaction
    axioms. *)

(** {1 JSONL codec} *)

exception Parse_error of string
(** The same exception as [Asset_util.Json.Parse_error]. *)

val entry_to_json : entry -> string
(** One JSON object, no trailing newline. *)

val entry_of_json : string -> entry
(** Inverse of {!entry_to_json}; raises {!Parse_error} on malformed
    input. *)

val load_jsonl : string -> entry list
(** Read a JSONL trace file, oldest first (blank lines skipped). *)

(** {1 Pretty-printing} *)

val lock_action_to_string : lock_action -> string
val pp_event : Format.formatter -> event -> unit
val pp_entry : Format.formatter -> entry -> unit
