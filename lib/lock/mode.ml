(* Lock modes and operation sets.

   The paper's lock request descriptor carries "the lock mode of the
   request (read, write, none)"; permits name the *operations* a grantee
   may perform.  The elementary operations here are read and write,
   plus — implementing the paper's section-5 plan to "exploit the
   concurrency semantics inherent in objects" — typed-object operation
   modes whose compatibility is the commutativity relation of the
   operations (Malta & Martinez):

   - [Increment]: unbounded counter increments commute, so Increment
     locks are compatible with each other while still conflicting with
     reads and writes (the multi-level-transaction treatment the paper
     cites from Weikum).
   - [Escrow]: bounded increments/decrements against a [lo, hi]
     interval.  Escrow locks are mutually compatible; the engine's
     escrow accounting guarantees the bounds hold for every completion
     order of the holders.  Escrow conflicts with plain Increment:
     an unbounded increment can invalidate a bound another holder was
     promised.
   - [Enqueue]: queue appends.  Enqueue/Enqueue is compatible (the
     queue's abstract state — the multiset of items — commutes; arrival
     order is the serialization order).
   - [Snapshot]: the virtual mode of a snapshot read by a read-only
     transaction.  It is never requested from the lock manager — that
     is the point — but it exists so trace-level op tags ('S') have a
     footprint entry that commutes with everything. *)

type t = Read | Write | Increment | Escrow | Enqueue | Snapshot

let equal a b =
  match (a, b) with
  | Read, Read | Write, Write | Increment, Increment -> true
  | Escrow, Escrow | Enqueue, Enqueue | Snapshot, Snapshot -> true
  | (Read | Write | Increment | Escrow | Enqueue | Snapshot), _ -> false

let to_string = function
  | Read -> "R"
  | Write -> "W"
  | Increment -> "I"
  | Escrow -> "E"
  | Enqueue -> "Q"
  | Snapshot -> "S"

let pp ppf m = Format.pp_print_string ppf (to_string m)

(* Lock-table conflict matrix: R/R compatible; I/I compatible
   (increments commute); E/E compatible (escrow accounting keeps the
   bounds safe for any completion order); Q/Q compatible (enqueues
   commute on the multiset of items); Snapshot is compatible with
   everything (snapshot reads never touch the lock table).  Everything
   else conflicts — in particular E/I: an unbounded increment would
   invalidate the worst-case bound analysis escrow holders rely on. *)
let conflicts a b =
  match (a, b) with
  | Snapshot, _ | _, Snapshot -> false
  | Read, Read -> false
  | Increment, Increment -> false
  | Escrow, Escrow -> false
  | Enqueue, Enqueue -> false
  | _ -> true

(* Single-character operation tags used by trace events. *)
let of_op_char = function
  | 'R' -> Some Read
  | 'W' -> Some Write
  | 'I' -> Some Increment
  | 'E' -> Some Escrow
  | 'Q' -> Some Enqueue
  | 'S' -> Some Snapshot
  | _ -> None

(* Schedule-commutation relation on operation tags, used by the
   sleep-set explorer to prune redundant interleavings.  This is
   deliberately *stricter* than the lock table for E/E and Q/Q:

   - two escrow ops are lock-compatible, but reordering them can flip
     which one hits the bound and aborts, so their order is observable;
   - two enqueues are lock-compatible, but the concrete queue contents
     depend on arrival order.

   Snapshot reads ('S') commute with everything: they return a version
   fixed at begin time and write nothing.  Unknown tags conservatively
   conflict with everything — a sound default for consumers that prune
   commuting steps. *)
let conflicts_ops a b =
  match (a, b) with
  | 'S', _ | _, 'S' -> false
  | 'E', 'E' -> true
  | 'Q', 'Q' -> true
  | _ -> (
      match (of_op_char a, of_op_char b) with
      | Some ma, Some mb -> conflicts ma mb
      | _ -> true)

(* "gl covers the requested lock": a Write lock allows any operation,
   and any state of lock ownership covers a snapshot read (which needs
   no lock at all). *)
let covers ~held ~requested =
  match (held, requested) with
  | _, Snapshot -> true
  | Write, _ -> true
  | Read, Read -> true
  | Increment, Increment -> true
  | Escrow, Escrow -> true
  | Enqueue, Enqueue -> true
  | (Read | Increment | Escrow | Enqueue | Snapshot), _ -> false

(* Least upper bound of two held modes: what a granted lock must record
   when its holder acquires a second mode on the same object.  Equal
   modes join to themselves and Snapshot is the identity; any other
   pair joins to Write, the only mode that both covers each operand and
   conflicts with everything either operand conflicts with.  Replacing
   the held mode with the requested one instead (the old upgrade
   behaviour) loses the first mode's conflicts: I upgraded to plain R
   lets a second reader in while the increment's uncommitted delta is
   still live — a dirty read. *)
let join a b =
  if equal a b then a
  else
    match (a, b) with
    | Snapshot, m | m, Snapshot -> m
    | _ -> Write

module Ops = struct
  type nonrec t = { read : bool; write : bool; incr : bool; escrow : bool; enq : bool }

  let all = { read = true; write = true; incr = true; escrow = true; enq = true }
  let none = { read = false; write = false; incr = false; escrow = false; enq = false }
  let read_only = { none with read = true }
  let write_only = { none with write = true }
  let incr_only = { none with incr = true }

  let of_list ops =
    List.fold_left
      (fun acc op ->
        match op with
        | Read -> { acc with read = true }
        | Write -> { acc with write = true }
        | Increment -> { acc with incr = true }
        | Escrow -> { acc with escrow = true }
        | Enqueue -> { acc with enq = true }
        (* A permit for reads excuses snapshot visibility too. *)
        | Snapshot -> { acc with read = true })
      none ops

  let mem op t =
    match op with
    | Read -> t.read
    | Write -> t.write
    | Increment -> t.incr
    | Escrow -> t.escrow
    | Enqueue -> t.enq
    | Snapshot -> t.read

  let inter a b =
    {
      read = a.read && b.read;
      write = a.write && b.write;
      incr = a.incr && b.incr;
      escrow = a.escrow && b.escrow;
      enq = a.enq && b.enq;
    }

  let is_empty t = (not t.read) && (not t.write) && (not t.incr) && (not t.escrow) && not t.enq

  let equal a b =
    a.read = b.read && a.write = b.write && a.incr = b.incr && a.escrow = b.escrow
    && a.enq = b.enq

  let pp ppf t =
    if is_empty t then Format.pp_print_string ppf "-"
    else begin
      if t.read then Format.pp_print_string ppf "R";
      if t.write then Format.pp_print_string ppf "W";
      if t.incr then Format.pp_print_string ppf "I";
      if t.escrow then Format.pp_print_string ppf "E";
      if t.enq then Format.pp_print_string ppf "Q"
    end
end
