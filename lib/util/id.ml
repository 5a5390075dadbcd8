(* Identifier generation and abstract id types shared across the system.

   The paper's tids are opaque handles generated by [initiate]; object ids
   are assigned by the storage manager.  Both are represented as private
   integers so that they can be used as hash-table keys and compared
   cheaply, while the type system keeps them apart. *)

module type S = sig
  type t

  val null : t
  (** The null identifier; [initiate] returns it on failure, [parent]
      returns it for top-level transactions. *)

  val is_null : t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val to_int : t -> int
  val of_int : int -> t

  val partition : t -> int -> int
  (** The system's one hash-partition function: which of [n] buckets
      this identifier falls in — the sharded engine's home shard of an
      object. *)

  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  type gen
  (** A monotonic generator of fresh identifiers. *)

  val generator : ?start:int -> ?stride:int -> unit -> gen
  val fresh : gen -> t
end

module Make (P : sig
  val prefix : string
end) : S = struct
  type t = int

  let null = 0
  let is_null t = t = 0
  let equal = Int.equal
  let compare = Int.compare
  let hash = Hashtbl.hash
  let to_int t = t
  let of_int i = i

  let partition t n =
    if n <= 0 then invalid_arg "partition: n must be >= 1";
    t mod n

  let null_string = P.prefix ^ ":null"
  let to_string t = if is_null t then null_string else P.prefix ^ string_of_int t
  let pp ppf t = Format.pp_print_string ppf (to_string t)

  type gen = { mutable next : int; stride : int }

  let generator ?(start = 1) ?(stride = 1) () =
    if start < 1 then invalid_arg "generator: start must be >= 1";
    if stride < 1 then invalid_arg "generator: stride must be >= 1";
    { next = start; stride }

  let fresh g =
    let v = g.next in
    g.next <- v + g.stride;
    v
end

module Tid = Make (struct
  let prefix = "t"
end)

module Oid = Make (struct
  let prefix = "ob"
end)
