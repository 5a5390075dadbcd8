(** Workflows (section 3.2.3 and the appendix): long-lived activities
    with transaction-like components, as a combinator DSL.

    The paper's X_conference trip is [Seq [Alternatives [...flights];
    Task hotel; Optional (Race [...cars])]] — see
    [examples/travel_workflow.ml].  When a mandatory step fails, every
    previously committed compensable task is compensated in reverse
    order, each compensation retried until it commits
    ({!Saga.compensate}, which raises [Saga.Compensation_failed]). *)

module E = Asset_core.Engine

type task

val task : ?compensate:(unit -> unit) -> string -> (unit -> unit) -> task
(** A transactional step with a label and optional semantic undo. *)

type t =
  | Task of task
  | Seq of t list
  | Alternatives of t list
      (** Ordered fallback; a failed alternative is locally rolled back
          before the next is tried. *)
  | Optional of t  (** Failure does not fail the workflow. *)
  | Race of task list
      (** Parallel alternatives; the first to {e complete} wins and the
          others are aborted ("Whichever of t5, t6 completes first
          wins"). *)
  | Group of task list  (** Components committing as one (GC). *)

type event =
  | Committed of string
  | Aborted of string
  | Compensated of string
  | Chose of string
  | Skipped of string

val pp_event : Format.formatter -> event -> unit

type outcome = { success : bool; events : event list (** in execution order *) }

val run : E.t -> t -> outcome

val committed_labels : outcome -> string list
val compensated_labels : outcome -> string list
