(** Transactional collections: named, ordered sets of objects — the
    "relation" the paper's cursor-stability discussion scans.

    A collection is stored in objects (a root listing chunk objects,
    each holding a bounded number of member oids), so membership
    changes are locked, logged and undone like any other update.
    Plumbing lives at negative oids; member oids must be positive.
    Ordered access sorts the chunk members read under the caller's
    locks.

    All operations must run inside a transaction body. *)

module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value

type t = { name : string; root : Oid.t; chunk_capacity : int }

val default_chunk_capacity : int

val create : Engine.t -> name:string -> ?chunk_capacity:int -> unit -> t
(** Raises [Invalid_argument] when the name is taken. *)

val find : Engine.t -> name:string -> ?chunk_capacity:int -> unit -> t option
val find_or_create : Engine.t -> name:string -> ?chunk_capacity:int -> unit -> t

val add : Engine.t -> t -> Oid.t -> bool
(** False when the member was already present.  Raises
    [Invalid_argument] on non-positive oids. *)

val remove : Engine.t -> t -> Oid.t -> bool
val mem : Engine.t -> t -> Oid.t -> bool
val cardinal : Engine.t -> t -> int

val members : Engine.t -> t -> Oid.t list
(** Sorted by oid. *)

val range : Engine.t -> t -> lo:Oid.t -> hi:Oid.t -> Oid.t list
(** Members in [\[lo, hi\]], sorted. *)

val scan :
  ?stability:[ `Repeatable_read | `Cursor ] -> Engine.t -> t -> f:(Oid.t -> Value.t -> unit) -> unit
(** Read each member object in oid order under the caller's
    transaction.  [`Cursor] implements section 3.2.2: after a record is
    processed, any transaction may write (or increment) it without
    waiting for the scanner to commit. *)
