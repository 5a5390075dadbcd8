(** Atomic transactions (section 3.1.1): the O++ [trans { ... }] block
    as a combinator — initiate, begin, commit, with failures surfacing
    as [`Aborted]. *)

module E = Asset_core.Engine

type result = [ `Committed | `Aborted | `Initiate_failed ]

val run : E.t -> (unit -> unit) -> result
(** Run the body as one atomic transaction.  The body aborts by
    raising, or by [Engine.abort] on itself. *)

val committed : E.t -> (unit -> unit) -> bool
(** [run] returning whether it committed. *)
