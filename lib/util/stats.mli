(** Lightweight counters and histograms for the engine, lock manager
    and benchmark harness. *)

module Counter : sig
  type t

  val create : string -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val get : t -> int
  val reset : t -> unit
  val name : t -> string
  val pp : Format.formatter -> t -> unit
end

module Histogram : sig
  (** Fixed-bucket histogram for integer observations; the last bucket
      collects overflow. *)

  type t

  val create : string -> bounds:int array -> t
  (** [bounds] are inclusive upper bucket bounds; they are sorted
      internally. *)

  val observe : t -> int -> unit
  val buckets : t -> int array
  val total : t -> int
  val pp : Format.formatter -> t -> unit
end
