(** The pager: a file of fixed-size pages.

    Page 0 holds the store header (magic, page size, page count); data
    pages are numbered from 1.  Durability comes from {!sync}
    (fsync). *)

type t

val default_page_size : int

val create : ?page_size:int -> string -> t
(** Create (truncating) a page file. *)

val open_existing : string -> t
(** Raises [Invalid_argument] when the file is not an ASSET page
    file. *)

val page_size : t -> int
val npages : t -> int

val alloc_page : t -> int
(** Append a zeroed page; returns its id. *)

val read_page : t -> int -> Bytes.t
val write_page : t -> int -> Bytes.t -> unit
val sync : t -> unit
val close : t -> unit
