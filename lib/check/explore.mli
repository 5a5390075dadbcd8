(** Systematic schedule exploration: a stateless bounded model checker
    over the cooperative scheduler, judged by the history oracle.

    {!explore} drives a {!Scenario.t} through every schedule of its
    bounded state space — depth-first over the scheduler's
    {!Asset_sched.Scheduler.Controlled} choice points, one fresh
    in-memory engine per run — replaying each terminal history through
    the scenario's oracle bundle.  Sleep-set partial-order reduction
    keyed on the lock manager's conflict relation prunes interleavings
    that differ only in commuting segments; depth and preemption
    bounds keep adversarial state spaces finite.  A failing schedule
    is returned as a byte-replayable choice sequence together with a
    locally-minimal shrink of it. *)

exception Nondeterministic of string
(** A revisited choice point presented different candidates than on
    first visit — the system under test is not deterministic under
    scheduler choices, so exploration results would be meaningless. *)

(** {2 Conflict footprints} *)

type atom =
  | Global  (** engine-level event; conflicts with everything *)
  | Data of int * char  (** (object id, op/mode tag 'R'|'W'|'I') *)

val atoms_of_entries : Asset_obs.Trace.entry list -> atom list
(** Deduplicated footprint of a trace slice; collapses to [[Global]]
    when any engine-level event is present. *)

val fps_conflict : atom list -> atom list -> bool
(** Whether two segment footprints conflict (fail to commute), via
    {!Asset_lock.Mode.conflicts_ops} on data atoms. *)

type seg = { s_fid : int; s_fp : atom list }
(** A transition for sleep-set purposes: fiber [s_fid] with the
    footprint its segment was observed to have. *)

(** {2 Single runs} *)

type obs = {
  o_cands : int array;  (** runnable fids at this choice point, stable order *)
  o_choice : int;  (** index chosen *)
  o_fid : int;  (** fid chosen *)
  o_preempt : bool;
  o_sleep : seg list;  (** this node's sleep set (extension nodes only) *)
  mutable o_fp : atom list;  (** footprint of the segment this choice executed *)
}

type run_result = {
  outcome : (unit, exn) result;
  entries : Asset_obs.Trace.entry list;
  obs : obs array;  (** one record per choice point, oldest first *)
  parked : int;  (** fibers still parked when the run ended *)
  runnable : int;
  preemptions : int;
}

type failure_kind =
  | Oracle_violation of { check : string; detail : string }
  | Deadlock of string list
  | Fiber_failure of string
  | Run_error of string

val replay : ?por:bool -> Scenario.t -> int list -> run_result
(** Re-execute a recorded (possibly minimised) choice sequence:
    scripted choices first — out-of-range indices clamped — then the
    deterministic default extension (continue the running fiber, else
    first candidate). *)

val classify : Scenario.t -> run_result -> failure_kind option
(** Judge one run: scheduler deadlock, fiber crash, or the scenario's
    oracle bundle over the terminal history. *)

val same_kind : failure_kind -> failure_kind -> bool
val pp_failure_kind : Format.formatter -> failure_kind -> unit

val choices_to_string : int list -> string
(** Dot-separated counterexample encoding, e.g. ["1.0.2"]. *)

val choices_of_string : string -> int list

val minimize : Scenario.t -> failure_kind -> int list -> budget:int -> int list
(** Greedy shrink (tail truncation, element deletion, decrement toward
    the default) to a locally-minimal script reproducing the same
    failure kind under {!replay}, within a run budget. *)

(** {2 Exhaustive exploration} *)

type options = {
  por : bool;  (** sleep-set partial-order reduction (default on) *)
  max_schedules : int;
  max_depth : int;  (** deepest choice point allowed to branch *)
  preemption_bound : int option;  (** None = exhaustive *)
  stop_on_failure : bool;
  minimize : bool;
  minimize_budget : int;
}

val default_options : options

type failure = {
  kind : failure_kind;
  schedule : int list;  (** full choice sequence of the failing run *)
  minimized : int list;  (** locally-minimal script; replay extends with the default *)
}

type report = {
  scenario : string;
  schedules : int;  (** runs executed *)
  pruned : int;  (** candidates skipped by sleep sets *)
  bounded : int;  (** candidates skipped by the preemption bound *)
  clipped : int;  (** branch points beyond [max_depth], never explored *)
  choice_points : int;
  max_depth_seen : int;
  completed : bool;  (** the bounded tree was fully explored *)
  failure : failure option;
}

val explore : ?options:options -> Scenario.t -> report
(** Enumerate the scenario's schedules depth-first.  Raises
    {!Nondeterministic} if a revisited choice point diverges. *)

(** {2 Mutation self-validation} *)

type mutation = No_deadlock_detection | Skip_remove_permits | Drop_cd_edge

val mutations : mutation list

val mutate : mutation -> Scenario.t -> Scenario.t
(** The scenario with the seeded bug switched on (name gains a
    ["+<mutation>"] suffix).  [No_deadlock_detection] turns off the
    engine's deadlock detection and applies to any scenario; the other
    two rewrite their {!kill_scenario}'s main program and raise
    [Invalid_argument] on any other scenario. *)

val kill_scenario : mutation -> Scenario.t
(** The canned scenario designed to expose the mutation. *)
