(** The repository's one JSON codec: trace JSONL lines and the
    benchmark's [BENCH_*.json] artifacts.  Hand-rolled so the libraries
    stay on the preinstalled package set. *)

type v =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null
  | List of v list
  | Obj of (string * v) list

exception Parse_error of string

val to_string : ?pretty:bool -> v -> string
(** Compact JSON (no whitespace) by default.  With [~pretty:true] the
    outermost object puts one member per line and every array of
    objects puts one object per line, so a diff of two artifacts shows
    the rows that changed.  A [Float] always carries a ['.'] or an
    exponent and prints the shortest digits that read back to the same
    float.  Raises [Invalid_argument] on a non-finite float, which JSON
    cannot represent. *)

val parse : string -> v
(** Inverse of {!to_string}: a number with a fraction or an exponent
    parses as [Float], any other as [Int].  Raises {!Parse_error} on
    malformed input or trailing garbage. *)

(** {1 Accessors} — each raises {!Parse_error} on a shape mismatch. *)

val member : string -> v -> v
val to_int : v -> int
val to_str : v -> string
val to_list : v -> v list
