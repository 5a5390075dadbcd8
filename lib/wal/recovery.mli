(** Crash recovery: repeat history, then undo losers.

    Analysis walks forward from the last completed checkpoint —
    quiescent ([Checkpoint]) or fuzzy ([Begin_ckpt]/[End_ckpt], whose
    captured active-transaction table seeds the undo information for
    transactions already running at the checkpoint) — attributing each
    update to the transaction finally responsible for it (delegation
    records re-attribute earlier updates, captured ones included);
    redo reinstalls every after image {e and} every CLR image in log
    order, optionally partitioned by OID hash across OCaml domains
    with a merge barrier before undo; undo walks unresolved losers'
    updates in reverse, installing before images (physical) or
    subtracting deltas (logical, for increments).  A loser whose Abort
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
      (** Where the forward scan started: the last quiescent
          [Checkpoint], the [begin_lsn] of the last completed fuzzy
          checkpoint, or the log's first live LSN. *)
  log_records_dropped : int;
      (** Complete log records dropped by {!Log.load} on CRC mismatch —
          nonzero means the log tail was corrupt, not merely torn. *)
}

val recover : ?domains:int -> Log.t -> Store.t -> report
(** Recover [store] from [log] and flush it.  Idempotent: recovering
    twice leaves the same state.  The scan starts at the last
    completed checkpoint (quiescent or fuzzy).  [domains] (default 1)
    > 1 replays redo in parallel: actions partition by [Oid.partition]
    so per-OID order is preserved, every domain joins at a merge
    barrier before undo, and the result is identical to serial
    replay.  Failpoints
    "recovery.domain.replay" (once per partition, before spawning) and
    "recovery.domain.merge" (after the barrier, before the store
    applies) fire on the driving domain. *)

val checkpoint : Log.t -> Store.t -> int
(** Quiescent checkpoint: flush the store, append and force a
    Checkpoint record, return its LSN.  The caller must ensure no
    transaction is active ([Asset_core.Engine.checkpoint] does). *)

val fuzzy_checkpoint :
  Log.t -> Store.t -> active:Record.att_entry list -> dirty:Record.Oid.t list -> int
(** Non-quiescent checkpoint: append [Begin_ckpt] carrying the caller's
    snapshot of the active-transaction table, flush the store, append
    [End_ckpt] and force; returns the begin LSN — the redo watermark
    safe to pass to [Log.retire].  A crash inside leaves an incomplete
    pair that analysis ignores (recovery falls back to the previous
    checkpoint).  Failpoints "wal.ckpt.begin" / "wal.ckpt.flush" /
    "wal.ckpt.end" bracket the three steps. *)

val pp_report : Format.formatter -> report -> unit
