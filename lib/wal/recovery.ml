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
               writes reached the disk.  Redo actions are whole-value
               installs, so a crash part-way through redo leaves a
               store that the next recovery's redo simply overwrites.

   undo     —  walk the loser updates in reverse LSN order installing
               before images (a missing before image means the object
               was created by the loser and is deleted).  A loser whose
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

(* How an update is undone: physical installs the before image;
   logical (increments, enqueues) edits the *current* value — subtract
   the delta, remove the item — so that commuting updates by other
   transactions survive. *)
type undo_kind = Physical of Value.t option | Logical_delta of int | Logical_dequeue of string

type update = {
  lsn : int;
  oid : Oid.t;
  undo : undo_kind;
  after : Value.t;
  mutable responsible : Tid.t;
}

type report = {
  winners : Tid.t list;
  losers : Tid.t list;
  updates_redone : int;
  updates_undone : int;
  scanned_from : int;
  log_records_dropped : int;
}

type redo_action = Install of Oid.t * Value.t | Remove of Oid.t

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

let undo_of_ckpt = function
  | Record.Ckpt_physical before -> Physical before
  | Record.Ckpt_delta delta -> Logical_delta delta
  | Record.Ckpt_dequeue item -> Logical_dequeue item

(* One forward pass from the anchor.  With an anchor the updates list
   is seeded from the captured active-transaction table (in LSN
   order, below everything the scan adds) — seeded updates join undo
   and delegation re-attribution but not redo: the checkpoint's store
   flush already covers every update logged before begin_lsn. *)
let analyze log =
  let updates = ref [] in
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
  let scan_from, seeds =
    match find_anchor log with None -> (Log.start_lsn log, []) | Some anchor -> anchor
  in
  let seed_updates =
    List.concat_map
      (fun (e : Record.att_entry) ->
        Hashtbl.replace seen e.att_tid ();
        List.map
          (fun (cu : Record.ckpt_update) ->
            { lsn = cu.cu_lsn; oid = cu.cu_oid; undo = undo_of_ckpt cu.cu_undo; after = cu.cu_after; responsible = e.att_tid })
          e.att_updates)
      seeds
  in
  List.iter
    (fun u -> updates := u :: !updates)
    (List.sort (fun a b -> compare a.lsn b.lsn) seed_updates);
  Log.iter ~from:scan_from log (fun lsn record ->
      match record with
      | Record.Begin_ckpt _ | Record.End_ckpt _ ->
          (* Anchoring already happened in the backward pass; nothing
             at or after the anchor changes what must be scanned. *)
          ()
      | Record.Begin tid -> Hashtbl.replace seen tid ()
      | Record.Update { tid; oid; before; after } ->
          Hashtbl.replace seen tid ();
          updates := { lsn; oid; undo = Physical before; after; responsible = tid } :: !updates;
          redo := Install (oid, after) :: !redo
      | Record.Increment { tid; oid; delta; after } ->
          Hashtbl.replace seen tid ();
          updates := { lsn; oid; undo = Logical_delta delta; after; responsible = tid } :: !updates;
          redo := Install (oid, after) :: !redo
      | Record.Enqueue { tid; oid; item; after } ->
          Hashtbl.replace seen tid ();
          updates := { lsn; oid; undo = Logical_dequeue item; after; responsible = tid } :: !updates;
          redo := Install (oid, after) :: !redo
      | Record.Clr { oid; image; undo_lsn; _ } ->
          Hashtbl.replace compensated undo_lsn ();
          redo :=
            (match image with Some v -> Install (oid, v) | None -> Remove oid) :: !redo
      | Record.Delegate { from_; to_; oids } ->
          Hashtbl.replace seen to_ ();
          let covers oid =
            match oids with None -> true | Some l -> List.exists (Oid.equal oid) l
          in
          List.iter
            (fun u -> if Tid.equal u.responsible from_ && covers u.oid then u.responsible <- to_)
            !updates
      | Record.Commit tids -> List.iter (fun tid -> Hashtbl.replace winners tid ()) tids
      | Record.Abort tid -> Hashtbl.replace aborted tid ());
  let updates = List.rev !updates in
  let redo = List.rev !redo in
  let winner tid = Hashtbl.mem winners tid in
  let losers =
    Hashtbl.fold (fun tid () acc -> if winner tid then acc else tid :: acc) seen []
  in
  let winners = Hashtbl.fold (fun tid () acc -> tid :: acc) winners [] in
  let resolved tid = Hashtbl.mem aborted tid in
  let undone lsn = Hashtbl.mem compensated lsn in
  ( updates,
    redo,
    winner,
    List.sort Tid.compare winners,
    List.sort Tid.compare losers,
    resolved,
    undone,
    scan_from )

let apply_action store = function
  | Install (oid, v) -> Store.write store oid v
  | Remove oid -> Store.delete store oid

let recover log store =
  if Trace.on () then Trace.emit Trace.Recovery_start;
  let updates, redo, winner, winners, losers, resolved, undone_before_crash, from =
    analyze log
  in
  (* Redo: repeat history, including the undo writes (CLRs) of aborts
     that ran before the crash.  The failpoint lets the torture harness
     lose power part-way through. *)
  List.iter
    (fun action ->
      Fault.hit_io site_redo;
      apply_action store action)
    redo;
  let redone = List.length redo in
  (* Undo unresolved losers (in-flight at the crash) in reverse order.
     Resolved losers' undos were replayed as CLRs above, and so was any
     prefix of an *unresolved* abort that persisted CLRs before the
     crash — those updates carry a compensating back-link and must not
     be undone a second time (double-applying a logical delta/dequeue
     would corrupt concurrent committers' commuting updates). *)
  let loser_updates =
    List.filter
      (fun u ->
        (not (winner u.responsible))
        && (not (resolved u.responsible))
        && not (undone_before_crash u.lsn))
      updates
  in
  let undone = List.length loser_updates in
  List.iter
    (fun u ->
      match u.undo with
      | Physical (Some v) -> Store.write store u.oid v
      | Physical None -> Store.delete store u.oid
      | Logical_delta delta -> (
          match Store.read store u.oid with
          | Some v -> Store.write store u.oid (Value.incr_int v (-delta))
          | None -> ())
      | Logical_dequeue item -> (
          match Store.read store u.oid with
          | Some v -> Store.write store u.oid (Value.queue_remove_last v item)
          | None -> ()))
    (List.rev loser_updates);
  Store.flush store;
  if Trace.on () then Trace.emit (Trace.Recovery_done { winners; losers });
  {
    winners;
    losers;
    updates_redone = redone;
    updates_undone = undone;
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
