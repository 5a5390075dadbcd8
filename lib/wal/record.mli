(** Write-ahead-log records.

    The section-4.2 write algorithm logs before and after images of
    every update; commit and abort place their own records.  Four
    ASSET-specific records extend the classical set:

    - [Commit] carries a {e list} of tids, because a resolved
      group-commit dependency commits a whole set of transactions
      atomically;
    - [Delegate] records responsibility transfers so recovery can
      attribute each update to the transaction {e finally} responsible
      for it;
    - [Increment] records commuting updates whose undo is logical
      (subtract the delta) rather than physical;
    - [Enqueue] logs the appended item, not the queue: redo appends
      it, undo removes it. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value

(** {2 Fuzzy-checkpoint capture}

    [Begin_ckpt] snapshots the active transaction table without
    quiescing: each in-flight transaction's undo information, with real
    log LSNs so undo ordering across captured and tail records stays
    globally correct.  [End_ckpt] anchors completeness — analysis only
    trusts a [Begin_ckpt] whose matching [End_ckpt] reached disk. *)

type ckpt_undo =
  | Ckpt_physical of Value.t option
      (** Install the before image; [None] = delete the object. *)
  | Ckpt_delta of int  (** Logical undo: subtract the delta. *)
  | Ckpt_dequeue of string  (** Logical undo: remove the enqueued item. *)

type ckpt_update = { cu_lsn : int; cu_oid : Oid.t; cu_undo : ckpt_undo }
type att_entry = { att_tid : Tid.t; att_updates : ckpt_update list }

type t =
  | Begin of Tid.t
  | Update of { tid : Tid.t; oid : Oid.t; before : Value.t option; after : Value.t }
      (** [before = None] means the object was created by this write. *)
  | Commit of Tid.t list
  | Abort of Tid.t
  | Delegate of { from_ : Tid.t; to_ : Tid.t; oids : Oid.t list option }
      (** [oids = None] delegates everything [from_] is responsible
          for. *)
  | Increment of { tid : Tid.t; oid : Oid.t; delta : int; after : Value.t }
      (** A commuting increment: [after] supports physical
          repeat-history redo, [delta] supports logical undo. *)
  | Enqueue of { tid : Tid.t; oid : Oid.t; item : string; image : Value.t option }
      (** A commuting queue append, logged as the item: redo appends
          [item], undo removes it (logical, so concurrent producers'
          items survive).  [image] is the full queue after the append,
          present only on the first enqueue on [oid] since the last
          [Begin_ckpt] (or since the engine started), so every redo
          scan installs the queue physically before appending to
          it. *)
  | Clr of { tid : Tid.t; oid : Oid.t; image : Value.t option; undo_lsn : int }
      (** Compensation record written by the abort algorithm for each
          installed undo image ([None] = deletion).  Redo-only for the
          image; [undo_lsn] back-links to the LSN of the update record
          it compensates, so recovery can tell how far a crashed abort
          got and never re-undoes an already-compensated update — the
          CLR-style abort-progress record that closes the
          double-undo window for logical (delta/dequeue) undos. *)
  | Begin_ckpt of { active : att_entry list; dirty : Oid.t list }
      (** Fuzzy-checkpoint open: ATT snapshot plus the distinct OIDs
          those transactions have touched.  The store is flushed
          between [Begin_ckpt] and [End_ckpt]. *)
  | End_ckpt of { begin_lsn : int }
      (** Fuzzy-checkpoint close: backlink to the matching
          [Begin_ckpt], recovery's redo watermark. *)

val pp : Format.formatter -> t -> unit

(** {2 Binary codec}

    Framing (record length) is the log's concern; these functions
    handle the record body. *)

exception Corrupt of string

val encode : t -> string
val decode : string -> t
(** Raises {!Corrupt} on malformed input. *)
