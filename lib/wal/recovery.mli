(** Crash recovery: repeat history, then undo losers.

    Analysis walks forward from the last completed checkpoint (a
    [Begin_ckpt]/[End_ckpt] pair, whose captured active-transaction
    table seeds the undo information for transactions already running
    at the checkpoint), attributing each update to the transaction
    finally responsible for it (delegation records re-attribute earlier
    updates, captured ones included); redo reinstalls every after image
    {e and} every CLR image in log order, and re-appends each enqueued
    item (the first enqueue on a queue after a checkpoint carries the
    full queue, so each scan installs it before appending); undo walks
    unresolved losers' updates in reverse, installing before images
    (physical), subtracting deltas or removing enqueued items
    (logical).  A loser whose Abort
    record reached the log is not re-undone — its CLRs already carry
    the undo. *)

module Tid = Asset_util.Id.Tid
module Store = Asset_storage.Store

type report = {
  winners : Tid.t list;
  losers : Tid.t list;
  updates_redone : int;
  updates_undone : int;
  scanned_from : int;
      (** Where the forward scan started: the [begin_lsn] of the last
          completed checkpoint, or the log's first live LSN. *)
  log_records_dropped : int;
      (** Complete log records dropped by {!Log.load_dir} on CRC mismatch —
          nonzero means the log tail was corrupt, not merely torn. *)
}

val recover : Log.t -> Store.t -> report
(** Recover [store] from [log] and flush it.  Idempotent: recovering
    twice leaves the same state.  The scan starts at the last
    completed checkpoint.  Failpoint "recovery.redo" fires before each
    redo action, so a crash can land part-way through redo. *)

val checkpoint :
  Log.t -> Store.t -> active:Record.att_entry list -> dirty:Record.Oid.t list -> int
(** Non-quiescent checkpoint: append [Begin_ckpt] carrying the caller's
    snapshot of the active-transaction table, flush the store, append
    [End_ckpt] and force; returns the begin LSN — the redo watermark
    safe to pass to [Log.retire].  A crash inside leaves an incomplete
    pair that analysis ignores (recovery falls back to the previous
    checkpoint).  Failpoints "wal.ckpt.begin" / "wal.ckpt.flush" /
    "wal.ckpt.end" bracket the three steps. *)

val pp_report : Format.formatter -> report -> unit
