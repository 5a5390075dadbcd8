(** The transaction dependencies graph (section 4.1): nodes are
    transactions, a typed edge (master, dependent) records a
    form_dependency; edges are doubly indexed so that dependencies
    emanating from or incoming to a transaction are found efficiently.

    GC edges carry no handshake marks: the group commit reads each
    member's TD status instead. *)

module Tid = Asset_util.Id.Tid

type edge = { master : Tid.t; dependent : Tid.t; dtype : Dep_type.t }

type t

val create : unit -> t

exception Cycle_rejected of Tid.t * Tid.t

val add : t -> Dep_type.t -> master:Tid.t -> dependent:Tid.t -> unit
(** Idempotent per (type, master, dependent).  Raises {!Cycle_rejected}
    when the edge would close a commit-wait (CD/AD) cycle — the paper's
    "a check is performed to prevent certain dependency cycles" —
    and [Invalid_argument] on a self dependency. *)

val mem : t -> Dep_type.t -> master:Tid.t -> dependent:Tid.t -> bool

val outgoing : t -> Tid.t -> edge list
(** Edges on which [tid] depends (it is the dependent). *)

val incoming : t -> Tid.t -> edge list
(** Edges whose dependents react to [tid] (it is the master). *)

val remove_involving : t -> Tid.t -> unit
(** Drop every edge touching [tid] (commit step 5 / abort step 5),
    visiting only [tid]'s own edges. *)

val edge_count : t -> int

(** {2 Group commit} *)

val gc_group : t -> Tid.t -> Tid.t list
(** The group-commit closure of [tid] over GC edges in both directions,
    sorted; [\[tid\]] when it has none. *)

(** {2 Extensions} *)

val exc_partners : t -> Tid.t -> Tid.t list
val bd_masters : t -> Tid.t -> Tid.t list

val all_edges : t -> edge list

val stats : t -> (string * int) list
(** A pure read: no counter is reset by reading. *)

val reset_stats : t -> unit
(** Reset the [formed]/[rejected] counters; [live_edges] is a gauge
    over the actual edge population and is left untouched. *)

val pp_edge : Format.formatter -> edge -> unit
val pp : Format.formatter -> t -> unit
