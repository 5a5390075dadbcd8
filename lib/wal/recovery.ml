(* Crash recovery from the log.

   Physical before/after-image logging admits a simple, idempotent
   "repeat history, then undo losers" scheme:

   analysis —  walk the log forward from the last completed checkpoint,
               collecting every update together with the transaction
               *finally responsible* for it.  Delegation records
               re-attribute earlier updates: an update performed by t_i
               and then delegated to t_j belongs to t_j ("it will be as
               if t_j, not t_i, has performed the operations", section
               2.2).  Winners are the transactions named in commit
               records (a group-commit record names the whole group).

   redo     —  reinstall every after image *and every CLR image* in log
               order, regardless of outcome, repeating history so the
               cache state matches the log tail whatever subset of
               writes reached the disk.  An enqueue is logged as its
               item and redone as an append onto the current value;
               the first enqueue on each queue after a checkpoint also
               carries the full queue, so every scan installs a queue
               before appending to it.  Redo is therefore a
               deterministic replay from physical images, and a crash
               part-way through it leaves a store that the next
               recovery's redo simply overwrites.

   undo     —  walk the loser updates in reverse LSN order, installing
               each one's [Record.undo_image] — the same undo the
               abort algorithm applies: the before image (a missing one
               means the loser created the object, which is deleted),
               or a logical edit of the current value.  A loser whose
               Abort record is in the log is *not* re-undone: the abort
               algorithm already logged a CLR for each installed before
               image, and blindly undoing it again could clobber a
               later winner's committed write to the same object.
               Likewise for a *crashed* abort: each CLR back-links the
               update it compensated, so the persisted prefix of an
               unresolved loser's undo is never repeated — essential
               for logical (delta/dequeue) undos, which are not
               idempotent.

   A checkpoint bounds the scan: a Begin_ckpt/End_ckpt pair taken
   without stopping the world.  Begin_ckpt carries the
   active-transaction table: for each in-flight transaction the undo
   information of every update it is responsible for, at its real LSN.
   The store is flushed between the pair, so an End_ckpt on disk
   guarantees every update logged before its begin_lsn is in the store
   — redo can start at begin_lsn, and undo of a transaction that was
   already running at the checkpoint works from the captured table
   instead of the (possibly retired) log prefix.  Tail Delegate records
   re-attribute captured updates exactly like scanned ones.  A
   Begin_ckpt without its End_ckpt (crash mid-checkpoint) is ignored
   and analysis falls back to the previous checkpoint. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Store = Asset_storage.Store
module Value = Asset_storage.Value
module Fault = Asset_fault.Fault
module Trace = Asset_obs.Trace

let site_ckpt_begin = Fault.register "wal.ckpt.begin"
let site_ckpt_flush = Fault.register "wal.ckpt.flush"
let site_ckpt_end = Fault.register "wal.ckpt.end"
let site_redo = Fault.register "recovery.redo"

type report = {
  winners : Tid.t list;
  losers : Tid.t list;
  updates_redone : int;
  updates_undone : int;
  scanned_from : int;
  log_records_dropped : int;
}

(* [Append] is an enqueue's redo: push the item onto the store's
   current value.  It is only sound because the engine logs a full
   image with the first enqueue on each queue after every Begin_ckpt:
   in any scan, from any anchor, an install of the queue (that image,
   an Update's after image or a CLR image) precedes its first append.
   So every append extends the replayed history's value, whatever the
   store held before redo — behind the anchor, or ahead of it after
   pool eviction or a crash part-way through an earlier redo. *)
type redo_action = Install of Oid.t * Value.t | Remove of Oid.t | Append of Oid.t * string

(* The latest trustworthy scan anchor, found by one backward walk: the
   begin LSN and captured table of the last End_ckpt whose backlink
   resolves to a live Begin_ckpt.  An End_ckpt with a dangling backlink
   (its Begin retired or corrupt) is skipped, as is any Begin_ckpt met
   on the way back (its End never made it: the checkpoint did not
   complete). *)
let find_anchor log =
  let result = ref None in
  (try
     Log.iter_rev log (fun lsn record ->
         match record with
         | Record.End_ckpt { begin_lsn } when begin_lsn >= Log.start_lsn log && begin_lsn < lsn -> (
             match Log.get log begin_lsn with
             | Record.Begin_ckpt { active; _ } ->
                 result := Some (begin_lsn, active);
                 raise Exit
             | _ -> ())
         | _ -> ())
   with Exit -> ());
  !result

(* One forward pass from the anchor.  Updates are indexed by the
   transaction currently responsible for them, so a Delegate moves
   one transaction's entries instead of walking every update seen so
   far.  With an anchor the index is seeded from the captured
   active-transaction table — seeded updates join undo and delegation
   re-attribution but not redo: the checkpoint's store flush already
   covers every update logged before begin_lsn.  Returns the updates
   recovery must undo, newest first, with the redo actions in log
   order. *)
let analyze log =
  let owned : (Tid.t, Record.ckpt_update list) Hashtbl.t = Hashtbl.create 16 in
  let owned_by tid = Option.value (Hashtbl.find_opt owned tid) ~default:[] in
  let redo = ref [] in
  let winners = Hashtbl.create 16 in
  let aborted = Hashtbl.create 16 in
  let seen = Hashtbl.create 16 in
  (* Update LSNs whose undo already ran before the crash, per the CLR
     back-links: a crashed abort's progress record.  Log durability is
     prefix-ordered and aborts undo newest-first, so the compensated
     set is always a suffix of the loser's update history — recovery
     undoes exactly the remainder. *)
  let compensated = Hashtbl.create 16 in
  let update tid cu_lsn cu_oid cu_undo =
    Hashtbl.replace seen tid ();
    Hashtbl.replace owned tid ({ Record.cu_lsn; cu_oid; cu_undo } :: owned_by tid)
  in
  let scan_from, seeds =
    match find_anchor log with None -> (Log.start_lsn log, []) | Some anchor -> anchor
  in
  List.iter
    (fun (e : Record.att_entry) ->
      Hashtbl.replace seen e.att_tid ();
      Hashtbl.replace owned e.att_tid (List.rev_append e.att_updates (owned_by e.att_tid)))
    seeds;
  Log.iter ~from:scan_from log (fun lsn record ->
      match record with
      | Record.Begin_ckpt _ | Record.End_ckpt _ ->
          (* Anchoring already happened in the backward pass; nothing
             at or after the anchor changes what must be scanned. *)
          ()
      | Record.Begin tid -> Hashtbl.replace seen tid ()
      | Record.Update { tid; oid; before; after } ->
          update tid lsn oid (Record.Ckpt_physical before);
          redo := Install (oid, after) :: !redo
      | Record.Increment { tid; oid; delta; after } ->
          update tid lsn oid (Record.Ckpt_delta delta);
          redo := Install (oid, after) :: !redo
      | Record.Enqueue { tid; oid; item; image } ->
          update tid lsn oid (Record.Ckpt_dequeue item);
          redo := (match image with Some v -> Install (oid, v) | None -> Append (oid, item)) :: !redo
      | Record.Clr { oid; image; undo_lsn; _ } ->
          Hashtbl.replace compensated undo_lsn ();
          redo :=
            (match image with Some v -> Install (oid, v) | None -> Remove oid) :: !redo
      | Record.Delegate { from_; to_; oids } ->
          Hashtbl.replace seen to_ ();
          let moving, staying =
            match oids with
            | None -> (owned_by from_, [])
            | Some l ->
                List.partition
                  (fun u -> List.exists (Oid.equal u.Record.cu_oid) l)
                  (owned_by from_)
          in
          if moving <> [] then begin
            if staying = [] then Hashtbl.remove owned from_ else Hashtbl.replace owned from_ staying;
            Hashtbl.replace owned to_ (List.rev_append moving (owned_by to_))
          end
      | Record.Commit tids -> List.iter (fun tid -> Hashtbl.replace winners tid ()) tids
      | Record.Abort tid -> Hashtbl.replace aborted tid ());
  let winner tid = Hashtbl.mem winners tid in
  let losers =
    Hashtbl.fold (fun tid () acc -> if winner tid then acc else tid :: acc) seen []
  in
  (* Undo unresolved losers (in-flight at the crash).  Resolved losers'
     undos are replayed as CLRs, and so is any prefix of an
     *unresolved* abort that persisted CLRs before the crash — those
     updates carry a compensating back-link and must not be undone a
     second time (double-applying a logical delta/dequeue would
     corrupt concurrent committers' commuting updates). *)
  let to_undo =
    Hashtbl.fold
      (fun tid us acc ->
        if winner tid || Hashtbl.mem aborted tid then acc
        else List.filter (fun u -> not (Hashtbl.mem compensated u.Record.cu_lsn)) us @ acc)
      owned []
    |> List.sort (fun a b -> Int.compare b.Record.cu_lsn a.Record.cu_lsn)
  in
  let winners = Hashtbl.fold (fun tid () acc -> tid :: acc) winners [] in
  (to_undo, List.rev !redo, List.sort Tid.compare winners, List.sort Tid.compare losers, scan_from)

let apply_action store = function
  | Install (oid, v) -> Store.write store oid v
  | Remove oid -> Store.delete store oid
  | Append (oid, item) ->
      let current = Option.value (Store.read store oid) ~default:Value.empty in
      Store.write store oid (Value.queue_push current item)

let recover log store =
  if Trace.on () then Trace.emit Trace.Recovery_start;
  let to_undo, redo, winners, losers, from = analyze log in
  (* Redo: repeat history, including the undo writes (CLRs) of aborts
     that ran before the crash.  The failpoint lets the torture harness
     lose power part-way through. *)
  List.iter
    (fun action ->
      Fault.hit_io site_redo;
      apply_action store action)
    redo;
  List.iter
    (fun { Record.cu_oid = oid; cu_undo; _ } ->
      match Record.undo_image cu_undo ~current:(fun () -> Store.read store oid) with
      | Some v -> Store.write store oid v
      | None -> Store.delete store oid)
    to_undo;
  Store.flush store;
  if Trace.on () then Trace.emit (Trace.Recovery_done { winners; losers });
  {
    winners;
    losers;
    updates_redone = List.length redo;
    updates_undone = List.length to_undo;
    scanned_from = from;
    log_records_dropped = Log.corrupt_dropped log;
  }

(* A fuzzy checkpoint: no quiescence needed.  The caller captures the
   active-transaction table; this logs Begin_ckpt, flushes the store,
   logs End_ckpt and forces.  One force at the end suffices: log
   durability is prefix-ordered, so a durable End_ckpt implies a
   durable Begin_ckpt — and the flush ran between them, establishing
   the anchor invariant (End_ckpt on disk ⟹ every update logged
   before begin_lsn is in the store).  A crash anywhere inside leaves
   an incomplete pair that [find_anchor] skips, falling back to the
   previous checkpoint: fuzzy checkpointing never loses ground, it
   only fails to gain it. *)
let checkpoint log store ~active ~dirty =
  Fault.hit_io site_ckpt_begin;
  let begin_lsn = Log.append log (Record.Begin_ckpt { active; dirty }) in
  if Trace.on () then Trace.emit (Trace.Ckpt_begin { lsn = begin_lsn; active = List.length active });
  Fault.hit_io site_ckpt_flush;
  Store.flush store;
  Fault.hit_io site_ckpt_end;
  let end_lsn = Log.append log (Record.End_ckpt { begin_lsn }) in
  Log.force log;
  if Trace.on () then Trace.emit (Trace.Ckpt_end { lsn = end_lsn; begin_lsn });
  begin_lsn

let pp_report ppf r =
  Format.fprintf ppf "recovery: %d winners, %d losers, %d redone, %d undone (from lsn %d)"
    (List.length r.winners) (List.length r.losers) r.updates_redone r.updates_undone
    r.scanned_from
