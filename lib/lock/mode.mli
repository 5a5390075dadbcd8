(** Lock modes and operation sets.

    Read and write are the paper's elementary operations; the remaining
    modes implement its section-5 plan to exploit operation semantics,
    with compatibility = commutativity (Malta & Martinez):

    - [Increment] — unbounded commuting counter increments;
    - [Escrow] — bounded increments/decrements against a [lo, hi]
      interval, mutually compatible while the engine's escrow
      accounting shows the bounds hold for every completion order;
    - [Enqueue] — queue appends, mutually compatible on the multiset of
      items;
    - [Snapshot] — the virtual mode of a lock-free snapshot read by a
      read-only transaction; never actually requested from the lock
      manager, but present so trace op tags have a footprint entry. *)

type t = Read | Write | Increment | Escrow | Enqueue | Snapshot

val equal : t -> t -> bool

val to_string : t -> string
(** The one-letter tag ("R", "W", "I", "E", "Q", "S"); [pp] prints
    exactly this string. *)

val pp : Format.formatter -> t -> unit

val conflicts : t -> t -> bool
(** Lock-table conflict matrix: R/R, I/I, E/E and Q/Q are compatible,
    Snapshot is compatible with everything; everything else conflicts
    (in particular Escrow vs Increment). *)

val of_op_char : char -> t option
(** Decode the single-character operation tag used by trace events
    ('R', 'W', 'I', 'E', 'Q', 'S'); [None] for anything else. *)

val conflicts_ops : char -> char -> bool
(** Schedule-commutation relation on trace-event operation tags, used
    by the sleep-set explorer.  Deliberately stricter than {!conflicts}
    for 'E'/'E' and 'Q'/'Q' (lock-compatible, but reordering is
    observable: which escrow op hits the bound, concrete queue order);
    'S' commutes with everything.  Unknown tags conservatively conflict
    with everything, so independence judgements built on this relation
    stay sound. *)

val covers : held:t -> requested:t -> bool
(** Whether a lock held in [held] already satisfies a request for
    [requested] (a Write lock covers everything; anything covers
    Snapshot). *)

val join : t -> t -> t
(** Least upper bound of two held modes, for lock upgrades and
    delegation merges: equal modes join to themselves, Snapshot is the
    identity, and any other pair joins to Write — the only mode that
    covers both operands and preserves both operands' conflicts. *)

(** Sets of operations, closed under the intersection required by the
    transitive-permit rule. *)
module Ops : sig
  type mode := t
  type t

  val all : t
  val none : t
  val read_only : t
  val write_only : t
  val incr_only : t
  val of_list : mode list -> t
  val mem : mode -> t -> bool
  val inter : t -> t -> t
  val is_empty : t -> bool
  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end
