(** Crash recovery: rebuild the store from the log, repeat history,
    then undo losers.

    The log is the store's only durable copy.  Recovery clears the
    store and installs the newest [Checkpoint] record's image (nothing,
    if the log holds no checkpoint).  Analysis walks forward from that
    record, seeded with its captured active-transaction table, and
    attributes each update to the transaction finally responsible for
    it (delegation records re-attribute earlier updates, captured ones
    included).  Redo reinstalls every after image {e and} every CLR
    image in log order, and re-appends each enqueued item.  Undo walks
    unresolved losers' updates in reverse, installing before images
    (physical), subtracting deltas or removing enqueued items
    (logical).  A loser whose Abort record reached the log is not
    re-undone — its CLRs already carry the undo. *)

module Tid = Asset_util.Id.Tid
module Store = Asset_storage.Store

type report = {
  winners : Tid.t list;
  losers : Tid.t list;
  updates_redone : int;
  updates_undone : int;
  scanned_from : int;
      (** Where the forward scan started: the newest checkpoint's LSN,
          or the log's first live LSN. *)
  log_records_dropped : int;
      (** Complete log records dropped by {!Log.load_dir} on CRC mismatch —
          nonzero means the log tail was corrupt, not merely torn. *)
}

val recover : Log.t -> Store.t -> report
(** Rebuild [store] from [log] alone: whatever [store] held before is
    discarded.  Idempotent: recovering twice leaves the same state.
    Raises [Fault.Storage_error ("recovery", _)], leaving [store]
    untouched, when the log's prefix was retired ({!Log.start_lsn}
    > 0) and no checkpoint survived loading: the deleted segments
    held what would rebuild the store.
    Failpoint "recovery.redo" fires before each redo action, so a
    crash can land part-way through redo. *)

val checkpoint : Log.t -> Store.t -> active:Record.att_entry list -> int
(** Non-quiescent checkpoint: append one [Checkpoint] record carrying
    the caller's snapshot of the active-transaction table and the
    store's image, force it, then retire the log segments wholly below
    it; returns its LSN.  The caller must capture [active] in the same
    yield-free step.  A crash before the force returns leaves the
    previous checkpoint as the anchor.  Failpoint "wal.ckpt.append"
    fires before the record is appended, "wal.ckpt.forced" after its
    force and before retirement. *)

val pp_report : Format.formatter -> report -> unit
