(** Synthetic workload generation and a run harness.

    A workload is a batch of read/write transactions over a keyspace
    with optional Zipfian skew; bodies yield between operations so the
    batch actually interleaves under the cooperative scheduler. *)

module E = Asset_core.Engine
module Oid = Asset_util.Id.Oid
module Tid = Asset_util.Id.Tid

type op = Read of Oid.t | Write of Oid.t

type spec = {
  n_objects : int;
  n_txns : int;
  ops_per_txn : int;
  write_ratio : float;  (** 0.0 .. 1.0 *)
  theta : float;  (** Zipf skew; 0 = uniform *)
  seed : int;
  yield_between_ops : bool;
  read_modify_write : bool;
      (** Writes read first (lock upgrades — the classic
          upgrade-deadlock pattern) instead of writing blindly. *)
}

val default_spec : spec

val generate : spec -> op list list
(** The batch's operation lists, deterministic in [seed]. *)

val body_of_ops : E.t -> yield:bool -> rmw:bool -> op list -> unit -> unit

val run_bodies : E.t -> (unit -> unit) list -> int * int
(** Begin every body in its own fiber with its own committer fiber,
    await termination; returns (committed, aborted).  Must run inside a
    runtime fiber. *)

val run_batch : E.t -> yield:bool -> ?rmw:bool -> op list list -> int * int

val retryable : exn option -> bool
(** Is an abort with this {!E.failure_of} worth retrying?  True for
    deadlock victims ([None]), lock-wait timeouts, escrow bound misses
    and injected/transient I/O failures; false for real body
    failures. *)

val atomic : ?read_only:bool -> E.t -> (unit -> unit) -> unit -> Tid.t
(** [atomic db body ()] runs [body] as one atomic transaction — the
    paper's "if initiate, if begin, commit" — and returns its tid,
    terminated, or the null tid if the engine refused it. *)

type outcome =
  | Committed of Tid.t
  | Gave_up  (** refused, or still retryable when the budget ran out *)
  | Failed of exn  (** a non-retryable {!E.failure_of} *)

val retry :
  max_retries:int -> rng:Asset_util.Rng.t -> E.t -> (unit -> Tid.t) -> outcome * int
(** [retry ~max_retries ~rng db attempt] is the one abort-retry loop.
    [attempt ()] runs one attempt and returns the tid that decides it,
    terminated: committed, aborted, or null (refused).  A {!retryable}
    abort is retried up to [max_retries] times, each once every
    transaction active at the abort has terminated and after a seeded
    backoff of [Rng.int rng (min 64 (2 lsl k))] scheduler yields on
    retry [k]; a refusal or a non-retryable failure is not retried.
    Counts one ["retries"] per retry and one ["gave_up"] per
    uncommitted outcome into [E.stats].  Returns the outcome and the
    number of retries.  Must run inside a fiber that runs no
    transaction, or the wait would include the caller's own. *)

type retry_metrics = { r_committed : int; r_retries : int; r_gave_up : int }

val run_bodies_with_retry :
  ?max_retries:int -> rng:Asset_util.Rng.t -> E.t -> (unit -> unit) list -> retry_metrics
(** Like {!run_bodies}, but each body runs {!atomic} under its own
    driver fiber and {!retry} loop (default 3 retries); [r_gave_up]
    counts every body that did not commit.  Must run inside a runtime
    fiber. *)

type metrics = {
  committed : int;
  aborted : int;
  duration_s : float;
  lock_waits : int;
  commit_retries : int;
  deadlock_victims : int;
  throughput : float;  (** committed transactions per second *)
}

val pp_metrics : Format.formatter -> metrics -> unit

val run : spec -> metrics
(** Full experiment: fresh store and engine, run the batch, report. *)
