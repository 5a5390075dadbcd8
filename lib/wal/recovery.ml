(* Crash recovery from the log.

   The log is the only durable copy of the store.  Physical
   before/after-image logging plus a checkpoint record that carries the
   store's image admit a simple, idempotent "rebuild, repeat history,
   then undo losers" scheme:

   anchor   —  find the newest Checkpoint record.  Clear the store and
               install its image: the store's contents at the
               checkpoint's cut, in-flight transactions' updates
               included.  Without a checkpoint the store starts empty
               and the scan starts at LSN 0.  A log whose prefix was
               retired no longer holds what that prefix built, so
               without a checkpoint it is refused.

   analysis —  walk the log forward from the anchor, collecting every
               update together with the transaction *finally
               responsible* for it.  Delegation records re-attribute
               earlier updates: an update performed by t_i and then
               delegated to t_j belongs to t_j ("it will be as if t_j,
               not t_i, has performed the operations", section 2.2).
               Winners are the transactions named in commit records (a
               group-commit record names the whole group).

   redo     —  reinstall every after image *and every CLR image* in log
               order, regardless of outcome, repeating history.  An
               enqueue is logged as its item and redone as an append
               onto the current value.  That is sound because redo
               always starts from exactly the anchor's state: the image
               holds every effect logged before the checkpoint and none
               after it.  A crash part-way through redo leaves a store
               that the next recovery clears and rebuilds.

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

   The checkpoint's active-transaction table holds, for each in-flight
   transaction, the undo information of every update it is responsible
   for, at its real LSN.  Undo of a transaction that was already running
   at the checkpoint works from that table instead of the (retired) log
   prefix, and tail Delegate records re-attribute captured updates
   exactly like scanned ones. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Store = Asset_storage.Store
module Value = Asset_storage.Value
module Fault = Asset_fault.Fault
module Trace = Asset_obs.Trace

let site_ckpt_append = Fault.register "wal.ckpt.append"
let site_ckpt_forced = Fault.register "wal.ckpt.forced"
let site_redo = Fault.register "recovery.redo"

type report = {
  winners : Tid.t list;
  losers : Tid.t list;
  updates_redone : int;
  updates_undone : int;
  scanned_from : int;
  log_records_dropped : int;
}

type redo_action = Install of Oid.t * Value.t | Remove of Oid.t | Append of Oid.t * string

(* The newest checkpoint, found by one backward walk: its LSN, captured
   table and store image.  A torn checkpoint frame never loaded, so the
   walk meets the previous one; retirement only ever deletes what lies
   below a forced checkpoint. *)
let find_anchor log =
  let result = ref None in
  (try
     Log.iter_rev log (fun lsn record ->
         match record with
         | Record.Checkpoint { active; image } ->
             result := Some (lsn, active, image);
             raise Exit
         | _ -> ())
   with Exit -> ());
  !result

(* One forward pass from [scan_from].  Updates are indexed by the
   transaction currently responsible for them, so a Delegate moves one
   transaction's entries instead of walking every update seen so far.
   The index is seeded from the anchor's captured table — seeded
   updates join undo and delegation re-attribution but not redo: the
   image already holds them.  Returns the updates recovery must undo,
   newest first, with the redo actions in log order. *)
let analyze log ~scan_from ~seeds =
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
  List.iter
    (fun (e : Record.att_entry) ->
      Hashtbl.replace seen e.att_tid ();
      Hashtbl.replace owned e.att_tid (List.rev_append e.att_updates (owned_by e.att_tid)))
    seeds;
  Log.iter ~from:scan_from log (fun lsn record ->
      match record with
      | Record.Checkpoint _ -> (* the anchor, or an older one before it *) ()
      | Record.Begin tid -> Hashtbl.replace seen tid ()
      | Record.Update { tid; oid; before; after } ->
          update tid lsn oid (Record.Ckpt_physical before);
          redo := Install (oid, after) :: !redo
      | Record.Increment { tid; oid; delta; after } ->
          update tid lsn oid (Record.Ckpt_delta delta);
          redo := Install (oid, after) :: !redo
      | Record.Enqueue { tid; oid; item } ->
          update tid lsn oid (Record.Ckpt_dequeue item);
          redo := Append (oid, item) :: !redo
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
  (to_undo, List.rev !redo, List.sort Tid.compare winners, List.sort Tid.compare losers)

let apply_action store = function
  | Install (oid, v) -> Store.write store oid v
  | Remove oid -> Store.delete store oid
  | Append (oid, item) ->
      let current = Option.value (Store.read store oid) ~default:Value.empty in
      Store.write store oid (Value.queue_push current item)

let recover log store =
  if Trace.on () then Trace.emit Trace.Recovery_start;
  let anchor = find_anchor log in
  (* Retirement deleted the prefix below a checkpoint that no longer
     loads (corruption condemned it): no record left can rebuild what
     the prefix held, so refuse rather than return a partial store. *)
  if anchor = None && Log.start_lsn log > 0 then
    raise
      (Fault.Storage_error
         ( "recovery",
           Failure
             (Printf.sprintf "the log starts at lsn %d, after retirement, and holds no checkpoint"
                (Log.start_lsn log)) ));
  Store.clear store;
  let scan_from, seeds =
    match anchor with
    | None -> (0, [])
    | Some (lsn, active, image) ->
        List.iter (fun (oid, v) -> Store.write store oid v) image;
        (lsn, active)
  in
  let to_undo, redo, winners, losers = analyze log ~scan_from ~seeds in
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
  if Trace.on () then Trace.emit (Trace.Recovery_done { winners; losers });
  {
    winners;
    losers;
    updates_redone = List.length redo;
    updates_undone = List.length to_undo;
    scanned_from = scan_from;
    log_records_dropped = Log.corrupt_dropped log;
  }

(* A checkpoint: no quiescence needed.  The caller captures the
   active-transaction table; this captures the store's image at the
   same yield-free cut, appends both as one record, forces it and
   retires every segment wholly below it.  Once the force returns, the
   record anchors recovery by itself, so nothing below it is needed
   any more.  A crash before the force leaves at most a torn frame,
   which loading drops: recovery falls back to the previous checkpoint,
   whose segments are still live. *)
let checkpoint log store ~active =
  Fault.hit_io site_ckpt_append;
  let image = Store.dump store in
  let lsn = Log.append log (Record.Checkpoint { active; image }) in
  Log.force log;
  if Trace.on () then
    Trace.emit (Trace.Ckpt { lsn; active = List.length active; objects = List.length image });
  Fault.hit_io site_ckpt_forced;
  ignore (Log.retire log ~below:lsn);
  lsn

let pp_report ppf r =
  Format.fprintf ppf "recovery: %d winners, %d losers, %d redone, %d undone (from lsn %d)"
    (List.length r.winners) (List.length r.losers) r.updates_redone r.updates_undone
    r.scanned_from
