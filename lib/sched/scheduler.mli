(** Deterministic cooperative scheduler over OCaml 5 effect handlers.

    Every transaction (and the application's main program) runs in a
    fiber; a blocking primitive parks its fiber on the predicate that
    ends its wait ({!park}) — the section-4.2 "blocks and retries"
    structure, minus the retries that would block again, with every
    schedule reproducible (FIFO, or seeded random).

    The hot paths are O(1): the run queue is a circular-buffer deque
    (FIFO pop and the random policy's swap-remove are constant time),
    and a parked predicate is re-checked only once the scheduler's
    clock has advanced past the value at which it was last seen
    false.

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
          boundary.  A queued {!park} re-check whose predicate is
          false is parked again first, so it is never a candidate.  An
          out-of-range return raises [Invalid_argument]. *)

type t

exception Deadlock of string list
exception Fiber_failed of string * exn

val create : ?policy:policy -> ?max_steps:int -> unit -> t
(** [max_steps] (default 10M) bounds total scheduling steps, turning
    livelocks into failures. *)

val set_on_stall : t -> (unit -> bool) -> unit
(** The hook must return true iff it made progress (e.g. aborted a
    victim).  A true return advances the clock, so every {!park}
    waiter is re-checked. *)

val set_on_quiesce : t -> (unit -> unit) -> unit
(** Called whenever the run queue empties (before wake conditions are
    re-examined).  The engine uses it to flush batched group-commit
    log forces.  The hook must not spawn or wake fibers. *)

val set_clock : t -> (unit -> int) -> unit
(** Register a monotone counter that advances whenever a {!park}
    predicate may change value (the engine's state-change counter).
    The scheduler's clock is this counter plus one tick per completed
    fiber and per stall hook that reports progress; without a
    registered counter it is the ticks alone. *)

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

val park : ?reason:string -> (unit -> bool) -> unit
(** Park until the condition holds (checked immediately first).  The
    condition should change value only when the clock advances; a
    change made otherwise (say, by another domain) is seen at the next
    advance.  Once
    the clock passes the value at which it was seen false, the fiber
    takes its turn in the run queue, where a block-and-retry loop would
    have retried, and the scheduler evaluates the condition there: the
    fiber resumes only if it holds, else parks again without resuming
    and without counting a step. *)

val wait_until : ?reason:string -> (unit -> bool) -> unit
(** Park until the condition holds (checked immediately first),
    re-polling it after every step.  For conditions no clock guards;
    each such waiter costs one evaluation per step. *)

(** {2 Introspection} *)

val current_fid : t -> int
(** The running fiber's id, or -1 outside any fiber. *)

val steps : t -> int
val runnable_count : t -> int
val parked_count : t -> int
val parked_reasons : t -> string list
