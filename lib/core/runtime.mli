(** Runtime: wires an engine to a scheduler and runs an application
    program.

    Every ASSET primitive may block, so application code — including
    the main program that initiates and commits top-level transactions
    — must run inside a fiber. *)

module Sched = Asset_sched.Scheduler

type outcome = {
  result : (unit, exn) result;
  steps : int;  (** Scheduler steps taken. *)
  deadlocked : bool;  (** The run ended in [Scheduler.Deadlock]. *)
}

val run : ?policy:Sched.policy -> ?max_steps:int -> Engine.t -> (unit -> unit) -> outcome
(** Attach a scheduler (with the engine's deadlock resolver as the
    stall hook), spawn [program] as the first fiber, drive everything
    to completion. *)

val run_exn : ?policy:Sched.policy -> ?max_steps:int -> Engine.t -> (unit -> unit) -> unit
(** Like {!run} but re-raises any failure. *)

val with_fresh_db :
  ?config:Engine.config ->
  ?policy:Sched.policy ->
  ?max_steps:int ->
  ?objects:int ->
  ?init:(int -> Asset_storage.Value.t) ->
  (Engine.t -> unit) ->
  Engine.t
(** Build an in-memory database with [objects] pre-populated objects
    (oids 1..n, default value 0), run [program], return the engine for
    inspection. *)
