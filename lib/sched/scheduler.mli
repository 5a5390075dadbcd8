(** Deterministic cooperative scheduler over OCaml 5 effect handlers.

    Every transaction (and the application's main program) runs in a
    fiber; a blocking primitive parks its fiber under a wake condition
    and the engine re-evaluates conditions on every state change —
    preserving the section-4.2 "blocks and retries" structure while
    making every schedule reproducible (FIFO, or seeded random).

    The hot paths are O(1): the run queue is a circular-buffer deque
    (FIFO pop and the random policy's swap-remove are constant time),
    and parked fibers whose condition is guarded by the engine's
    version counter ({!wait_until} with [~watch], after {!set_clock})
    are only re-evaluated once the counter has advanced past the value
    at which the condition was last seen false.

    Deadlock is observable rather than a hang: when no fiber is
    runnable and no parked condition holds, the [on_stall] hook runs
    (the engine uses it to abort a deadlock victim); if it makes no
    progress, {!Deadlock} is raised with the parked fibers' reasons. *)

type candidate = { cfid : int; clabel : string }
(** One runnable fiber presented to a {!Controlled} strategy at a
    choice point, in stable run-queue order. *)

type policy =
  | Fifo
  | Random_seeded of int
  | Controlled of (candidate array -> int)
      (** Pluggable strategy: at every scheduling step the function is
          given the runnable fibers (stable order) and returns the index
          to run next — the hook systematic explorers drive to
          enumerate every interleaving.  Called even when only one
          fiber is runnable, so strategies observe every segment
          boundary.  An out-of-range return raises [Invalid_argument]. *)

type t

exception Deadlock of string list
exception Fiber_failed of string * exn

val create : ?policy:policy -> ?max_steps:int -> unit -> t
(** [max_steps] (default 10M) bounds total scheduling steps, turning
    livelocks into failures. *)

val set_on_stall : t -> (unit -> bool) -> unit
(** The hook must return true iff it made progress (e.g. aborted a
    victim and bumped a version counter). *)

val set_on_quiesce : t -> (unit -> unit) -> unit
(** Called whenever the run queue empties (before wake conditions are
    re-examined).  The engine uses it to flush batched group-commit
    log forces.  The hook must not spawn or wake fibers. *)

val set_clock : t -> (unit -> int) -> unit
(** Register the monotone version counter that guards watched waits
    (the engine's state-change counter).  Without a clock, [~watch] is
    ignored and every parked condition is re-polled on each sweep. *)

val spawn : t -> label:string -> (unit -> unit) -> int
(** Enqueue a fiber; returns its id.  Callable from inside or outside
    fibers. *)

val run : t -> unit
(** Drive all fibers to completion.  Raises {!Deadlock} or
    {!Fiber_failed} (an uncaught exception in a fiber, which indicates
    a bug — engine-level aborts never escape). *)

val run_main : ?policy:policy -> ?max_steps:int -> (unit -> unit) -> t
(** Create, spawn [main], run. *)

(** {2 Inside fibers} *)

val yield : unit -> unit

val wait_until : ?reason:string -> ?watch:int -> (unit -> bool) -> unit
(** Park until the condition holds (checked immediately first).
    [~watch:v] registers the clock snapshot the caller based its
    decision on and promises the condition only changes value when the
    clock advances; the scheduler then skips re-evaluating it until
    the clock passes the point where the condition was last seen
    false.  A stale snapshot is safe: the condition is re-checked at
    park time against the current clock reading. *)

(** {2 Introspection} *)

val current_fid : t -> int
(** The running fiber's id, or -1 outside any fiber. *)

val steps : t -> int
val runnable_count : t -> int
val parked_count : t -> int
val parked_reasons : t -> string list
