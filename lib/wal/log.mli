(** The log: an append-only record sequence addressed by LSN.

    Records always stay in memory, so the engine's one read-back — the
    commit-time MVCC publish, which fetches a committing transaction's
    updates with {!get} — needs no I/O (abort, savepoint rollback and
    checkpoints undo from the transaction's own update list, not from
    the log); with a backing directory every append is staged into
    a buffer in a framed binary format (length + CRC-32 + body) and
    {!force} drains and {e fsyncs} it — nothing is durable before the
    fsync.  The log never forces on its own, not even for a commit
    record: the engine stages commits and forces once per batch (group
    commit), as {!append} describes.

    On disk the log is a {e segment directory}
    ({!create_dir}/{!load_dir}) of fixed-size segment files plus an
    atomic [MANIFEST] naming the live ones.  Segments rotate when
    full (sealed segments are fsynced in full and never reopened) and
    {!retire} deletes sealed segments wholly below a checkpoint
    watermark — manifest update before unlink, idempotent under
    crashes at any step.  LSNs are global and never reused: after
    retirement a loaded log starts at {!start_lsn} > 0.  The current
    segment is zero-filled ahead of its data, so a force's fsync
    commits no file-size change; {!close} cuts the zero tail, and
    {!load_dir} reads the one a crash leaves as the end of the data.

    File I/O is instrumented with failpoints ("wal.append" — byte-
    sized, so a [Disk_full] budget refuses whole frames, never the
    zero fill — "wal.force", "wal.after_force", "wal.torn_write",
    "wal.write", "wal.extend", "wal.torn_extend", "wal.retire.manifest",
    "wal.retire.unlink", "wal.retire.sync_dir"; see
    {!Asset_fault.Fault}), and raw I/O failures surface as
    [Fault.Storage_error].  The log is fail-stop: once a write or an
    fsync of it has failed, every later {!force} raises and
    {!forced_lsn} never passes the records that may not have reached
    the file. *)

type t

val in_memory : unit -> t

val create_dir : ?segment_bytes:int -> string -> t
(** Open a fresh segment-directory log under [dir] (created if
    missing), rotating to a new segment file once the current one
    holds [segment_bytes] (default 1 MiB) of framed records.  The
    rotation threshold is recorded in the manifest, so {!load_dir}
    restores it. *)

exception Bad_manifest of string
(** The [MANIFEST] is not one this module wrote: a bad magic line, an
    unknown directive or a malformed number.  Carries the offending
    line. *)

val load_dir : string -> t
(** Read a segment directory back for recovery: parses the manifest's
    segments in order and truncates at the first unclean point — a
    torn tail (partial final record, or a frame cut short over the
    zero tail) on the final segment is the normal crash signature; a
    CRC-32 mismatch or interior damage condemns every record after
    it, counted in {!corrupt_dropped}.  An all-zero frame header
    followed only by zeros is the clean end of the data.  It
    deletes segment files the manifest does not name — completing any
    retirement or rotation a crash interrupted — and reopens the last
    live segment appendable, so the recovered log accepts further
    appends and stays durable.  A directory without a manifest loads
    as an empty log.  Idempotent: loading twice yields the same log.
    Raises {!Bad_manifest} on a manifest it cannot parse. *)

val corrupt_dropped : t -> int
(** How many complete records {!load_dir} dropped on CRC mismatch or
    interior damage (a torn tail is not corruption); 0 for logs not
    produced by a load. *)

val crash : t -> unit
(** Simulated power loss: discard the staging buffer (everything
    appended since the last drain) and drop the descriptor without
    flushing.  The disk is left with exactly the bytes that reached
    it; reopen with {!load_dir}. *)

val append : t -> Record.t -> int
(** Append and return the record's LSN.  Appending never forces, not
    even a [Commit] record: the WAL rule (a commit is acknowledged only
    once its record is durable) lives in the engine, which stages
    commit records, calls {!force} once per batch and acknowledges a
    commit once {!forced_lsn} covers it.  On a segment-directory log
    this may seal the current segment and rotate.  A record whose body
    exceeds {!max_record_bytes} is refused with
    [Fault.Storage_error] before anything is staged. *)

val max_record_bytes : int
(** The largest record body a frame carries (64 MiB): {!load_dir}
    reads a longer frame length as corruption. *)

val force : t -> unit
(** Make everything appended so far durable: drain the staging buffer
    and fsync the file descriptor.  The staged frames leave memory only
    once written.  If the write or the fsync fails, the log is failed
    for good: this and every later force raise
    [Fault.Storage_error] and {!forced_lsn} stays where it was. *)

val force_count : t -> int
(** How many times {!force} ran — the group-commit coalescing metric
    (K commits sharing one force show K appends but one force). *)

val forced_lsn : t -> int
(** Highest LSN known durable; -1 when nothing is.  An in-memory log
    has nothing to force and reports its last LSN. *)

val retire : t -> below:int -> int
(** Delete sealed segments every record of which has LSN < [below]
    (the checkpoint redo watermark), returning how many were deleted.
    Crash-safe and idempotent: the manifest stops naming a segment
    before its file is unlinked, and {!load_dir} sweeps unreferenced
    files.  0 for in-memory logs.  Disk-only: the
    in-memory record suffix is untouched, so the commit-time MVCC
    publish still resolves live transactions' update LSNs through
    {!get}. *)

val length : t -> int
(** The next LSN to be assigned ([start_lsn + records held]). *)

val start_lsn : t -> int
(** First LSN present in this log: 0 unless segments below it were
    retired before the load. *)

val appended_bytes : t -> int
(** Total framed bytes appended over the log's lifetime (the engine's
    checkpoint trigger meters this); for a loaded log, the bytes found
    on disk.  0 for in-memory logs. *)

val segment_count : t -> int
(** Live segment files, including the one being written (1 for
    in-memory logs). *)

val segments_retired : t -> int
(** Segments deleted by {!retire} over the directory's lifetime
    (persisted in the manifest across loads); 0 for in-memory logs. *)

val get : t -> int -> Record.t
(** Raises [Invalid_argument] on an LSN outside
    [[start_lsn, length)]. *)

val iter : ?from:int -> t -> (int -> Record.t -> unit) -> unit
val iter_rev : ?until:int -> t -> (int -> Record.t -> unit) -> unit
val fold : ?from:int -> t -> init:'a -> f:('a -> int -> Record.t -> 'a) -> 'a

val to_list : t -> Record.t list
(** The in-memory records, oldest first (from {!start_lsn}). *)

val close : t -> unit
(** Drain the staging buffer and close the file, cutting the current
    segment's zero tail so it holds exactly its frames.  It does not
    fsync: call {!force} first for durability. *)

val remove_dir : string -> unit
(** Delete a closed log's directory and every file in it; a no-op when
    the directory does not exist. *)

val pp : Format.formatter -> t -> unit
