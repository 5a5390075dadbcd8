(** A TPC-C-flavoured multi-class OLTP mix over bank-style tables.

    Four transaction classes — the new-order / payment / delivery /
    stock-level analogues — run against an account table, a stock
    table, two append-only queues and three escrow counters, with
    Zipfian skew on account and item choice.  Every class is expressed
    as a flat list of per-object operations ({!ops_of}), so the same
    generated transaction runs on a single engine ({!body}), as a
    read-only MVCC snapshot (stock-check), or decomposed by shard for
    the 2PC coordinator (group {!ops_of} by [Shard.shard_of] and
    {!apply} each group in its shard's body).

    Two conservation laws pin correctness whatever the interleaving,
    and {!check_conservation} audits them straight from the store:

    - money: [sum(accounts) + ledger] is constant (payments move money
      from an escrow-bounded account into the ledger);
    - goods: [sum(stock) + reserved + delivered] is constant
      (new-order moves stock into reservation, delivery moves
      reservation into delivered).

    Queue lengths tie to committed counts: [orders] holds one entry
    per committed new-order, [history] one per committed payment or
    delivery. *)

module E = Asset_core.Engine
module Oid = Asset_util.Id.Oid
module Rng = Asset_util.Rng

(** {2 Tables} *)

val account : int -> Oid.t
val stock : int -> Oid.t

val orders : Oid.t
(** Queue: one ["order:<c>"] entry per committed new-order. *)

val history : Oid.t
(** Queue: one ["pay:<c>"] / ["deliv"] entry per committed payment or
    delivery. *)

val ledger : Oid.t
(** Money received from payments (commuting increments). *)

val reserved : Oid.t
(** Stock units reserved by new-orders, not yet delivered. *)

val delivered : Oid.t
(** Stock units delivered. *)

type config = {
  accounts : int;
  items : int;
  theta : float;  (** Zipf skew for account and item choice; 0 = uniform *)
  mix : int array;
      (** Per-class weights, indexed by {!klass} order
          (new-order, payment, delivery, stock-check); need not sum
          to 100. *)
}

val default_config : config
(** 8 accounts, 16 items, theta 0.8, mix [|45; 43; 4; 8|]. *)

val setup : Asset_storage.Store.t -> config -> balance0:int -> stock0:int -> unit

(** {2 Transactions} *)

type klass = New_order | Payment | Delivery | Stock_check

val klass_name : klass -> string
val all_klasses : klass list

type op =
  | Escrow of { delta : int; lo : int }  (** bounded add, hi unbounded *)
  | Incr of int  (** commuting increment *)
  | Enq of string  (** queue append *)
  | Rd  (** read *)

type txn = { t_klass : klass; t_ops : (Oid.t * op) list }

val gen_txn : rng:Rng.t -> config -> txn
(** One seeded transaction, class drawn from [mix], objects drawn
    Zipf-skewed.  New-order reserves 1–3 stock lines; payment moves a
    small amount from one account; delivery moves one reserved unit;
    stock-check reads a handful of stock cells plus the ledger. *)

val ops_of : txn -> (Oid.t * op) list

val site_op : Asset_fault.Fault.site
(** Fault-injection point hit before every {!apply}; arm it with
    [Fail_prob] for the faulted conformance runs. *)

val apply : E.t -> Oid.t * op -> unit
(** Perform one operation inside the current transaction's body. *)

exception Insufficient
(** {!apply_rmw}'s bound-check failure: no in-flight deltas to blame,
    so it is a non-retryable abort (escrow's [Escrow_violation] is
    transient by contrast). *)

val apply_rmw : E.t -> Oid.t * op -> unit
(** The plain-2PL baseline: the same operation degraded to a
    read-then-write (lock upgrades, deadlocks and all). *)

val body : ?yield:bool -> ?rmw:bool -> E.t -> txn -> unit -> unit
(** The whole transaction as a single-engine body, yielding between
    operations by default; [~rmw:true] uses {!apply_rmw}. *)

val read_only : txn -> bool
(** True exactly for stock-check: eligible to run as a multi-version
    snapshot reader. *)

(** {2 Single-engine driver} *)

type class_stats = {
  mutable s_committed : int;
  mutable s_aborted : int;  (** attempts that aborted (before any retry) *)
  mutable s_retries : int;
  mutable s_gave_up : int;
  mutable s_lat : float list;  (** per-committed-txn latency, seconds *)
}

val run_mix :
  ?max_retries:int ->
  ?snapshot_readers:bool ->
  ?rmw:bool ->
  E.t ->
  seed:int ->
  txns:int ->
  config ->
  (klass * class_stats) list
(** Run [txns] generated transactions concurrently (one fiber each)
    with typed retry.  Every transaction ends committed or given up —
    retries exhausted, a non-retryable abort, or refused by
    [max_transactions] — so per class [s_committed + s_gave_up]
    counts its transactions.  [snapshot_readers] runs stock-checks as
    [read_only] MVCC snapshot transactions, [rmw] degrades every body
    to the plain-2PL baseline.  Must run inside a runtime fiber.
    Returns stats for all four classes in {!all_klasses} order. *)

(** {2 Invariants} *)

val check_conservation :
  Asset_storage.Store.t -> config -> balance0:int -> stock0:int -> (string * bool) list
(** The money and goods conservation laws, read from the store; every
    [bool] must be [true] after any quiesced run, faulted or not. *)

val queue_lengths : Asset_storage.Store.t -> int * int
(** Current ([orders], [history]) queue lengths. *)
