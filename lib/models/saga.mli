(** Sagas (section 3.1.6): a chain of independently-committing
    component transactions; on failure the committed prefix is
    compensated in reverse order, each compensation retried until it
    commits. *)

module E = Asset_core.Engine

type step

val step : ?compensate:(unit -> unit) -> ?label:string -> (unit -> unit) -> step
(** A component transaction with its compensating transaction.  Only
    the last step of a saga may lack a compensation (the paper: "t_n is
    not associated with a compensating transaction"). *)

type result =
  | Committed
  | Rolled_back of { failed_step : int; compensated : int }
      (** Failed at the 0-based [failed_step]; [compensated] components
          were compensated in reverse commitment order. *)

exception Compensation_failed of string
(** A compensation did not commit within 1000 attempts; carries the
    step's label. *)

val compensate : E.t -> label:string -> (unit -> unit) -> unit
(** Run a compensating transaction, retrying any abort until it
    commits (section 3.1.6).  Raises [Compensation_failed label] after
    1000 attempts. *)

val run : E.t -> step list -> result
(** Raises [Invalid_argument] when a non-final step lacks a
    compensation. *)

val committed : result -> bool
