(** In-memory object store: the EOS shared object cache.  It is not
    durable by itself; the log is, and a checkpoint logs its image. *)

module Oid = Asset_util.Id.Oid

type t

val create : ?initial_size:int -> unit -> t
val to_store : ?name:string -> t -> Store.t

val store : ?name:string -> ?initial_size:int -> unit -> Store.t
(** A fresh store in one step. *)

val populate : Store.t -> n:int -> value:(int -> Value.t) -> unit
(** Write objects with oids 1..n, each holding [value i]. *)
