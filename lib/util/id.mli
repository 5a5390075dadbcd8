(** Identifier types shared across the system.

    Transaction identifiers ([Tid]) are the opaque handles returned by
    [initiate]; object identifiers ([Oid]) name persistent objects in
    the store.  Both are private integers with a null value, cheap
    equality/hashing, and monotonic generators — the module types keep
    them from being mixed up. *)

module type S = sig
  type t

  val null : t
  (** The null identifier.  [initiate] returns it when resources are
      exhausted; [parent] returns it for top-level transactions. *)

  val is_null : t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int

  val to_int : t -> int
  (** The raw integer behind the identifier (for encoding in logs and
      values). *)

  val of_int : int -> t
  (** Rebuild an identifier from its raw integer (log decoding). *)

  val partition : t -> int -> int
  (** [partition t n] is the bucket in [0, n) this identifier hashes
      to.  The system's one placement function: the sharded engine
      routes every object to its home shard through it.  Raises [Invalid_argument] when [n] is below 1. *)

  val to_string : t -> string
  (** The printed form: the prefix then the integer ([t7], [ob3]), or
      the prefix then [:null] for {!null}.  Built without [Format], so
      it is cheap enough for per-transaction labels and wait reasons;
      [pp] prints exactly this string. *)

  val pp : Format.formatter -> t -> unit

  type gen
  (** A monotonic generator of fresh identifiers. *)

  val generator : ?start:int -> ?stride:int -> unit -> gen
  (** [generator ()] yields 1, 2, 3, ...  [generator ~start ~stride ()]
      yields [start], [start+stride], ... — shard [i] of [n] engines
      passes [~start:(i+1) ~stride:n] so identifiers minted on
      different domains never collide.  Raises [Invalid_argument] when
      [start] or [stride] is below 1. *)

  val fresh : gen -> t
  (** A fresh, never-null identifier; successive calls are strictly
      increasing. *)
end

module Make (_ : sig
  val prefix : string
end) : S
(** Build a fresh identifier type whose printed form starts with
    [prefix]. *)

module Tid : S
(** Transaction identifiers (printed [t1], [t2], ...). *)

module Oid : S
(** Object identifiers (printed [ob1], [ob2], ...). *)
