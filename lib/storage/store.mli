(** The object-store interface the transaction engine runs against.

    The one implementation is {!Heap_store}, the in-memory object
    cache.  A store is never durable by itself: the log is, and a
    checkpoint logs the store's image (see {!Asset_wal.Recovery}). *)

module Oid = Asset_util.Id.Oid

(** Multi-version extension surfaced by {!Mvcc_store.wrap}: per-OID
    committed-version chains stamped with commit timestamps, snapshot
    registration, and GC to the minimum active snapshot.  Plain stores
    carry [None]; the engine wraps them on creation. *)
type mvcc = {
  stamp_commit : unit -> int;
  current_ts : unit -> int;
  preserve : Oid.t -> Value.t option -> unit;
  publish : Oid.t -> int -> Value.t -> unit;
  read_at : Oid.t -> int -> int * Value.t option;
  committed_head : Oid.t -> Value.t option;
  begin_snapshot : unit -> int;
  end_snapshot : int -> unit;
  gc : unit -> unit;
  max_chain : unit -> int;
  version_count : unit -> int;
}

type t = {
  name : string;
  read : Oid.t -> Value.t option;
  write : Oid.t -> Value.t -> unit;
  delete : Oid.t -> unit;
  exists : Oid.t -> bool;
  iter : (Oid.t -> Value.t -> unit) -> unit;
  size : unit -> int;
  mvcc : mvcc option;
}

val name : t -> string
val read : t -> Oid.t -> Value.t option

val read_exn : t -> Oid.t -> Value.t
(** Raises [Invalid_argument] when the object does not exist. *)

val write : t -> Oid.t -> Value.t -> unit
val delete : t -> Oid.t -> unit
val exists : t -> Oid.t -> bool
val iter : t -> (Oid.t -> Value.t -> unit) -> unit
val size : t -> int

val clear : t -> unit
(** Delete every object. *)

val dump : t -> (Oid.t * Value.t) list
(** Full contents as an oid-sorted association list; a debugging
    iterator used by tests to compare outcomes (not a snapshot in the
    MVCC sense — see {!mvcc}). *)

val equal_content : t -> t -> bool
