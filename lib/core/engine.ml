(* The ASSET engine: transaction descriptors and the complete primitive
   set of section 2 over the section-4 substrate (lock manager with
   permits, dependency graph, before/after-image log, object store).

   Concurrency model.  Every transaction body runs in a cooperative
   fiber ([Asset_sched.Scheduler]); a primitive that must block parks
   its fiber on the engine's version counter, which is bumped on every
   state change, and retries — the literal "blocks and retries later
   starting at step 1" of the paper's algorithms.  All primitives must
   therefore be called from inside [Runtime.run] (the application's main
   program is itself a fiber). *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Lock = Asset_lock.Lock_manager
module Mode = Asset_lock.Mode
module Dep = Asset_deps.Dep_graph
module Dep_type = Asset_deps.Dep_type
module Log = Asset_wal.Log
module Record = Asset_wal.Record
module Sched = Asset_sched.Scheduler
module Trace = Asset_obs.Trace
module Fault = Asset_fault.Fault

exception Txn_aborted of Tid.t
(** Raised inside a transaction body whose transaction has been aborted
    (by itself, by dependency propagation, or as a deadlock victim);
    unwinds the body back to the engine. *)

exception Not_in_transaction
(** A data operation ([read]/[write]) was invoked outside any
    transaction body. *)

exception Lock_timeout of Tid.t * Oid.t
(** A lock request stalled past [lock_wait_timeout_steps] retry rounds;
    the requester aborted itself with this as its failure reason —
    distinguishable from a deadlock victim (whose failure is [None]). *)

exception Escrow_violation of Tid.t * Oid.t
(** An escrow operation's worst-case bound analysis failed: no
    completion order of the in-flight escrow deltas keeps the counter
    inside the requested [lo, hi] interval.  Escrow is non-blocking by
    design — waiting for escrow headroom is invisible to the lock-based
    deadlock detector — so the operation aborts its transaction instead
    (a transient, retryable failure). *)

exception Read_only_txn of Tid.t
(** A mutating operation (or explicit lock) was invoked by a
    transaction opened with [~read_only:true]. *)

type td = {
  tid : Tid.t;
  parent : Tid.t;
  body : unit -> unit;
  mutable status : Status.t;
  mutable fid : int; (* scheduler fiber, -1 until begun *)
  mutable updates : int list; (* LSNs of updates this txn is responsible for, newest first *)
  mutable commit_lsn : int; (* LSN of the commit record covering this txn, -1 before *)
  mutable failure : exn option; (* body exception, if any *)
  mutable begin_denied : bool;
      (* a BD master aborted before this transaction began: it may
         never begin (the dependency edge itself is gone by then) *)
  read_only : bool;
      (* opened with [~read_only]: all reads are lock-free snapshot
         reads against the begin-timestamp version store; mutating
         operations raise [Read_only_txn] *)
  mutable snapshot_ts : int;
      (* begin timestamp of the registered snapshot, -1 when none *)
}

type config = {
  max_transactions : int;
  deadlock_detection : bool;
  lock_wait_timeout_steps : int;
      (* abort a lock requester stalled past this many retry rounds
         with [Lock_timeout] instead of hanging — the liveness backstop
         when deadlock detection is off.  0 (the default) disables *)
  checkpoint_log_bytes : int;
      (* take a fuzzy checkpoint — and retire fully-checkpointed log
         segments — once this many log bytes accumulate since the last
         one, measured at commit time.  0 (the default) disables; only
         meaningful on a file- or directory-backed log *)
}

let default_config =
  {
    max_transactions = 10_000;
    deadlock_detection = true;
    lock_wait_timeout_steps = 0;
    checkpoint_log_bytes = 0;
  }

type t = {
  store : Store.t;
  log : Log.t;
  locks : Lock.t;
  deps : Dep.t;
  config : config;
  tds : (Tid.t, td) Hashtbl.t;
  tid_gen : Tid.gen;
  (* escrow accounting: per-object in-flight escrow deltas as
     (owner, delta) pairs.  Acceptance tests the worst case — every
     in-flight delta of one sign committing, the others aborting —
     against the requested bounds; entries move with delegation and
     clear at commit/abort. *)
  escrow_inflight : (Oid.t, (Tid.t * int) list) Hashtbl.t;
  fiber_txn : (int, Tid.t) Hashtbl.t; (* scheduler fid -> tid *)
  mutable sched : Sched.t option;
  mutable version : int; (* bumped on every observable state change *)
  (* group commit: the newest commit record appended but not yet
     forced, and how many transactions the staged records cover *)
  mutable staged_commit_lsn : int;
  mutable staged_commit_txns : int;
  (* log bytes at the last fuzzy checkpoint — the trigger baseline *)
  mutable ckpt_bytes_mark : int;
  (* statistics *)
  commits : Asset_util.Stats.Counter.t;
  aborts : Asset_util.Stats.Counter.t;
  group_commits : Asset_util.Stats.Counter.t;
  lock_waits : Asset_util.Stats.Counter.t;
  commit_retries : Asset_util.Stats.Counter.t;
  deadlock_victims : Asset_util.Stats.Counter.t;
  lock_timeouts : Asset_util.Stats.Counter.t;
  retries : Asset_util.Stats.Counter.t;
  gave_up : Asset_util.Stats.Counter.t;
  reads : Asset_util.Stats.Counter.t;
  writes : Asset_util.Stats.Counter.t;
  snapshot_reads : Asset_util.Stats.Counter.t;
  escrow_ops : Asset_util.Stats.Counter.t;
  escrow_violations : Asset_util.Stats.Counter.t;
  enqueues : Asset_util.Stats.Counter.t;
  fuzzy_ckpts : Asset_util.Stats.Counter.t;
  abort_log_misses : Asset_util.Stats.Counter.t;
}

let create ?(config = default_config) ?log ?tid_gen store =
  let log = match log with Some l -> l | None -> Log.in_memory () in
  let tid_gen = match tid_gen with Some g -> g | None -> Tid.generator () in
  (* Every engine runs over a multi-version store: the wrapper
     delegates the base surface untouched (2PL traffic is unaffected)
     and adds the committed-version chains snapshot reads need. *)
  let store = Asset_storage.Mvcc_store.wrap store in
  {
    store;
    log;
    locks = Lock.create ();
    deps = Dep.create ();
    config;
    tds = Hashtbl.create 128;
    tid_gen;
    escrow_inflight = Hashtbl.create 16;
    fiber_txn = Hashtbl.create 64;
    sched = None;
    version = 0;
    staged_commit_lsn = -1;
    staged_commit_txns = 0;
    ckpt_bytes_mark = 0;
    commits = Asset_util.Stats.Counter.create "engine.commits";
    aborts = Asset_util.Stats.Counter.create "engine.aborts";
    group_commits = Asset_util.Stats.Counter.create "engine.group_commits";
    lock_waits = Asset_util.Stats.Counter.create "engine.lock_waits";
    commit_retries = Asset_util.Stats.Counter.create "engine.commit_retries";
    deadlock_victims = Asset_util.Stats.Counter.create "engine.deadlock_victims";
    lock_timeouts = Asset_util.Stats.Counter.create "engine.lock_timeouts";
    retries = Asset_util.Stats.Counter.create "engine.retries";
    gave_up = Asset_util.Stats.Counter.create "engine.gave_up";
    reads = Asset_util.Stats.Counter.create "engine.reads";
    writes = Asset_util.Stats.Counter.create "engine.writes";
    snapshot_reads = Asset_util.Stats.Counter.create "engine.snapshot_reads";
    escrow_ops = Asset_util.Stats.Counter.create "engine.escrow_ops";
    escrow_violations = Asset_util.Stats.Counter.create "engine.escrow_violations";
    enqueues = Asset_util.Stats.Counter.create "engine.enqueues";
    fuzzy_ckpts = Asset_util.Stats.Counter.create "engine.fuzzy_ckpts";
    abort_log_misses = Asset_util.Stats.Counter.create "engine.abort_log_misses";
  }

(* The version-store operations; present on every engine store by
   construction (see [create]). *)
let mvcc db =
  match db.store.Store.mvcc with
  | Some m -> m
  | None -> assert false

(* Drop every in-flight escrow reservation owned by [tid] (commit and
   abort both end the reservation: the committed head then reflects the
   delta, or the delta never happened). *)
let clear_escrow db tid =
  Hashtbl.filter_map_inplace
    (fun _ entries ->
      match List.filter (fun (t, _) -> not (Tid.equal t tid)) entries with
      | [] -> None
      | l -> Some l)
    db.escrow_inflight

(* Close a read-only transaction's snapshot so version GC can advance
   past its begin timestamp.  Idempotent. *)
let close_snapshot db (td : td) =
  if td.snapshot_ts >= 0 then begin
    (mvcc db).Store.end_snapshot td.snapshot_ts;
    td.snapshot_ts <- -1
  end

let bump db = db.version <- db.version + 1

(* Force the log over every commit record staged since the last
   flush.  One force acknowledges the whole batch; a batch covering
   more than one transaction is a coalesced (group) commit.  A segment
   rotation may already have forced the batch, so force only when the
   log is behind it — but wake the parked committers either way. *)
let flush_pending_commits db =
  if db.staged_commit_txns > 0 then begin
    if Log.forced_lsn db.log < db.staged_commit_lsn then begin
      Log.force db.log;
      if db.staged_commit_txns > 1 then Asset_util.Stats.Counter.incr db.group_commits
    end;
    db.staged_commit_txns <- 0;
    bump db
  end

let sched db =
  match db.sched with
  | Some s -> s
  | None -> invalid_arg "Asset engine: no scheduler attached (use Runtime.run)"

let td db tid =
  match Hashtbl.find_opt db.tds tid with
  | Some td -> td
  | None -> Fmt.invalid_arg "Asset engine: unknown transaction %a" Tid.pp tid

let status db tid = (td db tid).status
let is_terminated db tid = Status.terminated (status db tid)
let is_aborted db tid = match status db tid with Status.Aborted | Status.Aborting -> true | _ -> false
let is_committed db tid = Status.equal (status db tid) Status.Committed
let parent_of db tid = (td db tid).parent
let failure_of db tid = (td db tid).failure

(* Park the current fiber until the engine version moves past [v].
   The watch snapshot lets the scheduler skip re-evaluating the
   condition until the version has actually advanced. *)
let wait_for_change db ~reason v =
  Sched.wait_until ~reason ~watch:v (fun () -> db.version > v)

(* ------------------------------------------------------------------ *)
(* self / parent                                                       *)

let self_opt db =
  match db.sched with
  | None -> None
  | Some s -> Hashtbl.find_opt db.fiber_txn (Sched.current_fid s)

let self db = match self_opt db with Some tid -> tid | None -> Tid.null

let parent db =
  match self_opt db with Some tid -> (td db tid).parent | None -> Tid.null

let current_td db =
  match self_opt db with
  | Some tid -> td db tid
  | None -> raise Not_in_transaction

(* A primitive invoked by (or a data operation of) an aborted
   transaction unwinds immediately. *)
let check_live td =
  match td.status with
  | Status.Aborting | Status.Aborted -> raise (Txn_aborted td.tid)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* initiate / begin                                                    *)

let initiate ?parent:parent_tid ?(read_only = false) db body =
  if Hashtbl.length db.tds >= db.config.max_transactions then Tid.null
  else begin
    let parent = match parent_tid with Some p -> p | None -> self db in
    let tid = Tid.fresh db.tid_gen in
    let td =
      {
        tid;
        parent;
        body;
        status = Status.Initiated;
        fid = -1;
        updates = [];
        commit_lsn = -1;
        failure = None;
        begin_denied = false;
        read_only;
        snapshot_ts = -1;
      }
    in
    Hashtbl.replace db.tds tid td;
    if Trace.on () then Trace.emit (Trace.Initiate { tid; parent });
    td.tid
  end

(* Forward declaration: finalize_abort is used by the body wrapper. *)
let abort_ref : (t -> Tid.t -> bool) ref = ref (fun _ _ -> assert false)

let run_body db td =
  Hashtbl.replace db.fiber_txn td.fid td.tid;
  (try td.body ()
   with
  | Txn_aborted _ -> () (* the abort machinery has already done its work *)
  | Asset_fault.Fault.Crash _ as e ->
      (* Simulated power loss is not a body failure: nothing below the
         torture harness may catch it (an abort here would append an
         Abort record — I/O the dead machine never performed). *)
      raise e
  | e ->
      (* A body failure aborts the transaction, Ode-style.  Aborting
         oneself raises [Txn_aborted] to unwind the body; here the body
         has already ended, so swallow it. *)
      td.failure <- Some e;
      (try ignore (!abort_ref db td.tid) with Txn_aborted _ -> ()));
  Hashtbl.remove db.fiber_txn td.fid;
  (match td.status with Status.Running -> td.status <- Status.Completed | _ -> ());
  bump db

let begin_ db tid =
  let td = td db tid in
  match td.status with
  | Status.Initiated when td.begin_denied -> false
  | Status.Initiated ->
      (* Extension: begin-on-commit dependencies gate the start. *)
      let masters = Dep.bd_masters db.deps tid in
      let rec wait_bd () =
        let blocked =
          List.filter
            (fun m -> match status db m with Status.Committed -> false | _ -> true)
            masters
        in
        match blocked with
        | [] -> true
        | ms when List.exists (fun m -> is_aborted db m) ms -> false
        | _ ->
            let v = db.version in
            wait_for_change db ~reason:"begin: BD master not committed" v;
            wait_bd ()
      in
      if masters <> [] && not (wait_bd ()) then false
      else begin
        td.status <- Status.Running;
        if Trace.on () then Trace.emit (Trace.Begin { tid });
        (* A read-only transaction pins its snapshot at begin: every
           read will see exactly the versions committed by now. *)
        if td.read_only then begin
          td.snapshot_ts <- (mvcc db).Store.begin_snapshot ();
          if Trace.on () then Trace.emit (Trace.Snapshot { tid; ts = td.snapshot_ts })
        end;
        Log.append db.log (Record.Begin tid) |> ignore;
        td.fid <- Sched.spawn (sched db) ~label:(Format.asprintf "%a" Tid.pp tid) (fun () -> run_body db td);
        bump db;
        true
      end
  | _ -> false

let begin_many db tids = List.for_all (fun t -> begin_ db t) tids

(* ------------------------------------------------------------------ *)
(* Data operations: the section 4.2 read / write algorithms            *)

let acquire_lock db td oid mode =
  let rounds = ref 0 in
  let rec loop () =
    check_live td;
    match Lock.acquire db.locks td.tid oid mode with
    | Lock.Acquired -> ()
    | Lock.Blocked_on blockers ->
        let bound = db.config.lock_wait_timeout_steps in
        if bound > 0 && !rounds >= bound then begin
          (* The request has stalled past the bound: abort ourselves
             with a distinguishable reason instead of hanging.  The
             scheduler's stall hook keeps bumping the version while
             lock waiters exist, so [rounds] advances even when nothing
             else in the system moves. *)
          Asset_util.Stats.Counter.incr db.lock_timeouts;
          td.failure <- Some (Lock_timeout (td.tid, oid));
          ignore (!abort_ref db td.tid)
          (* unreachable: aborting oneself raises Txn_aborted *)
        end;
        incr rounds;
        Asset_util.Stats.Counter.incr db.lock_waits;
        let reason =
          Format.asprintf "lock %a/%a held by %a" Oid.pp oid Mode.pp mode
            (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Tid.pp)
            blockers
        in
        let v = db.version in
        wait_for_change db ~reason v;
        loop ()
  in
  loop ()

(* Acquire a lock without touching the data — used by layers (e.g.
   private workspaces) that want to declare intent up front and avoid
   later upgrades. *)
let lock db oid mode =
  let td = current_td db in
  check_live td;
  if td.read_only then raise (Read_only_txn td.tid);
  acquire_lock db td oid mode

let read db oid =
  let td = current_td db in
  check_live td;
  if td.read_only then begin
    (* Lock-free snapshot read: the newest version committed at or
       before the begin timestamp.  No lock — versions at or below an
       active snapshot's timestamp are immutable (commits only prepend
       newer ones, and GC never trims past them). *)
    let vts, value = (mvcc db).Store.read_at oid td.snapshot_ts in
    if Trace.on () then Trace.emit (Trace.Snap_read { tid = td.tid; oid; ts = vts });
    Asset_util.Stats.Counter.incr db.snapshot_reads;
    value
  end
  else begin
    acquire_lock db td oid Mode.Read;
    if Trace.on () then Trace.emit (Trace.Op { tid = td.tid; oid; op = 'R' });
    Asset_util.Stats.Counter.incr db.reads;
    Store.read db.store oid
  end

let read_exn db oid =
  match read db oid with
  | Some v -> v
  | None -> Fmt.invalid_arg "Asset read: %a does not exist" Oid.pp oid

(* One logged update of [oid]: read the before image, log the record
   [f] builds from it, install the after image.  Nothing here yields, so
   on an engine confined to one domain no other fiber can run between
   the before-image read and the write — this fiber segment is what the
   paper's section-4.1 X latch protects. *)
let logged_update db td oid f =
  let before = Store.read db.store oid in
  (* First engine write to this oid: [before] is still its committed
     state — seed the version chain with it so snapshot readers never
     see the dirty base value. *)
  (mvcc db).Store.preserve oid before;
  let record, after = f before in
  td.updates <- Log.append db.log record :: td.updates;
  Store.write db.store oid after

(* A counter delta, undone logically (increment and escrow alike). *)
let increment_update db td oid delta =
  logged_update db td oid (fun before ->
      let current = match before with Some v -> Value.to_int v | None -> 0 in
      let after = Value.of_int (current + delta) in
      (Record.Increment { tid = td.tid; oid; delta; after }, after))

let write db oid value =
  let td = current_td db in
  check_live td;
  if td.read_only then raise (Read_only_txn td.tid);
  acquire_lock db td oid Mode.Write;
  if Trace.on () then Trace.emit (Trace.Op { tid = td.tid; oid; op = 'W' });
  Asset_util.Stats.Counter.incr db.writes;
  logged_update db td oid (fun before ->
      (Record.Update { tid = td.tid; oid; before; after = value }, value))

(* Read-modify-write helper: the common increment/update pattern. *)
let modify db oid f =
  let v = read db oid in
  write db oid (f v)

(* A commuting increment (the paper's section-5 "semantics of objects"
   plan): Increment locks are mutually compatible, so concurrent
   transactions increment the same counter without blocking or lock
   upgrades, and undo is logical (subtract the delta) so an abort never
   clobbers other transactions' concurrent increments — unlike the
   permit-based cooperation of section 3.2.1, where abort installs
   before images and loses them.  An increment of a missing object
   creates it at [delta]. *)
let increment db oid delta =
  let td = current_td db in
  check_live td;
  if td.read_only then raise (Read_only_txn td.tid);
  acquire_lock db td oid Mode.Increment;
  if Trace.on () then Trace.emit (Trace.Op { tid = td.tid; oid; op = 'I' });
  Asset_util.Stats.Counter.incr db.writes;
  increment_update db td oid delta

(* Escrow update (the section-5 typed-object plan taken further): a
   bounded counter delta that commits only if the counter provably
   stays inside [lo, hi].  The test is against the *worst case* over
   the in-flight escrow deltas — the committed value plus all positive
   in-flight deltas (everyone else's decrements abort) must not exceed
   [hi], and plus all negative deltas must not fall below [lo] — so
   acceptance never depends on how concurrent transactions finish, and
   the Escrow lock mode stays mutually compatible.  A failed test is a
   transient condition (headroom returns when in-flight deltas
   resolve), but waiting for it would be invisible to the lock-based
   deadlock detector, so the operation aborts its transaction with the
   retryable [Escrow_violation] instead of blocking. *)
let escrow db oid delta ~lo ~hi =
  let td = current_td db in
  check_live td;
  if td.read_only then raise (Read_only_txn td.tid);
  acquire_lock db td oid Mode.Escrow;
  if Trace.on () then Trace.emit (Trace.Op { tid = td.tid; oid; op = 'E' });
  Asset_util.Stats.Counter.incr db.escrow_ops;
  (* The bound analysis and the reservation are atomic: no yield point
     separates them, so two candidates cannot both claim the last of
     the headroom. *)
  let committed =
    match (mvcc db).Store.committed_head oid with Some v -> Value.to_int v | None -> 0
  in
  let inflight = Option.value (Hashtbl.find_opt db.escrow_inflight oid) ~default:[] in
  let candidate = (td.tid, delta) :: inflight in
  let pos = List.fold_left (fun acc (_, d) -> acc + max d 0) 0 candidate in
  let neg = List.fold_left (fun acc (_, d) -> acc + min d 0) 0 candidate in
  if committed + pos > hi || committed + neg < lo then begin
    Asset_util.Stats.Counter.incr db.escrow_violations;
    td.failure <- Some (Escrow_violation (td.tid, oid));
    ignore (!abort_ref db td.tid)
    (* unreachable: aborting oneself raises Txn_aborted *)
  end;
  Hashtbl.replace db.escrow_inflight oid candidate;
  (* The physical update is an increment: same logical-undo CLR on
     abort, same repeat-history treatment in recovery. *)
  increment_update db td oid delta

(* Enqueue on a queue-typed object: appends commute with appends (FIFO
   order between uncommitted producers is decided at commit), so the
   Enqueue lock mode is mutually compatible and producers never block
   each other.  Undo is logical — remove the appended item — so an
   abort never clobbers items enqueued concurrently by others. *)
let enqueue db oid item =
  let td = current_td db in
  check_live td;
  if td.read_only then raise (Read_only_txn td.tid);
  acquire_lock db td oid Mode.Enqueue;
  if Trace.on () then Trace.emit (Trace.Op { tid = td.tid; oid; op = 'Q' });
  Asset_util.Stats.Counter.incr db.enqueues;
  logged_update db td oid (fun before ->
      let current = match before with Some v -> v | None -> Value.of_queue [] in
      let after = Value.queue_push current item in
      (Record.Enqueue { tid = td.tid; oid; item; after }, after))

(* ------------------------------------------------------------------ *)
(* Savepoints: partial rollback inside a transaction                   *)

type savepoint = { sp_tid : Tid.t; sp_boundary : int (* first LSN *after* the savepoint *) }

(* Mark the current point in the invoking transaction's update history.
   Rolling back to it undoes (and CLR-logs) every update the
   transaction became responsible for afterwards; locks acquired in
   between are retained, per the usual savepoint semantics. *)
let savepoint db =
  let td = current_td db in
  check_live td;
  { sp_tid = td.tid; sp_boundary = Log.length db.log }

let rollback_to db sp =
  let td = current_td db in
  check_live td;
  if not (Tid.equal sp.sp_tid td.tid) then
    invalid_arg "Engine.rollback_to: savepoint belongs to another transaction";
  let undo, keep = List.partition (fun lsn -> lsn >= sp.sp_boundary) td.updates in
  List.iter
    (fun lsn ->
      match Log.get db.log lsn with
      | Record.Update { oid; before; _ } ->
          Log.append db.log (Record.Clr { tid = td.tid; oid; image = before; undo_lsn = lsn })
          |> ignore;
          (match before with
          | Some v -> Store.write db.store oid v
          | None -> Store.delete db.store oid)
      | Record.Increment { oid; delta; _ } ->
          let current =
            match Store.read db.store oid with Some v -> Value.to_int v | None -> 0
          in
          let image = Value.of_int (current - delta) in
          Log.append db.log (Record.Clr { tid = td.tid; oid; image = Some image; undo_lsn = lsn })
          |> ignore;
          Store.write db.store oid image
      | Record.Enqueue { oid; item; _ } ->
          (* Logical undo: remove the appended item from the *current*
             queue, preserving concurrent producers' appends. *)
          let current =
            match Store.read db.store oid with Some v -> v | None -> Value.of_queue []
          in
          let image = Value.queue_remove_last current item in
          Log.append db.log (Record.Clr { tid = td.tid; oid; image = Some image; undo_lsn = lsn })
          |> ignore;
          Store.write db.store oid image
      | _ -> ())
    (List.sort (fun a b -> Int.compare b a) undo);
  td.updates <- keep;
  bump db

(* ------------------------------------------------------------------ *)
(* wait                                                                *)

let wait db tid =
  let rec loop () =
    match status db tid with
    | Status.Aborted | Status.Aborting -> false
    | Status.Completed | Status.Committing | Status.Committed -> true
    | Status.Initiated | Status.Running ->
        let v = db.version in
        wait_for_change db ~reason:(Format.asprintf "wait(%a)" Tid.pp tid) v;
        loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* delegate                                                            *)

let delegate ?oids db ~from_ ~to_ =
  let from_td = td db from_ and to_td = td db to_ in
  if Status.terminated from_td.status then
    Fmt.invalid_arg "delegate: %a has terminated" Tid.pp from_;
  if Status.terminated to_td.status then Fmt.invalid_arg "delegate: %a has terminated" Tid.pp to_;
  let moved_oids = Lock.delegate db.locks ~from_:from_ ~to_:to_ oids in
  (* Transfer responsibility for the logged updates on the delegated
     objects. *)
  let covers oid = match oids with None -> true | Some l -> List.exists (Oid.equal oid) l in
  let moving, staying =
    List.partition
      (fun lsn ->
        match Log.get db.log lsn with
        | Record.Update { oid; _ } | Record.Increment { oid; _ } | Record.Enqueue { oid; _ } ->
            covers oid
        | _ -> false)
      from_td.updates
  in
  from_td.updates <- staying;
  (* Keep newest-first ordering in the target by merging and sorting. *)
  to_td.updates <- List.sort (fun a b -> Int.compare b a) (moving @ to_td.updates);
  (* Escrow reservations on the delegated objects follow the
     responsibility for their deltas. *)
  Hashtbl.filter_map_inplace
    (fun oid entries ->
      if covers oid then
        Some (List.map (fun (t, d) -> if Tid.equal t from_ then (to_, d) else (t, d)) entries)
      else Some entries)
    db.escrow_inflight;
  Log.append db.log (Record.Delegate { from_; to_; oids }) |> ignore;
  if Trace.on () then Trace.emit (Trace.Delegate { from_; to_; moved = moved_oids });
  bump db

(* ------------------------------------------------------------------ *)
(* permit                                                              *)

(* permit(ti, tj, ob_set, operations) and its three abbreviated forms.
   [to_ = None] permits any transaction; [oids = None] expands, per the
   paper, to "each object that t_i accessed or has permission to
   access"; [ops = None] permits all operations. *)
let permit ?to_ ?oids ?ops db ~from_ =
  let ops = match ops with Some o -> o | None -> Mode.Ops.all in
  let objects =
    match oids with Some l -> l | None -> Lock.accessible_objects db.locks from_
  in
  List.iter (fun oid -> Lock.add_permit db.locks ~grantor:from_ ~grantee:to_ ~oid ~ops) objects;
  if Trace.on () then
    Trace.emit
      (Trace.Permit
         {
           from_;
           to_ = (match to_ with Some t -> t | None -> Tid.null);
           oids = objects;
           ops = Format.asprintf "%a" Mode.Ops.pp ops;
         });
  bump db

(* ------------------------------------------------------------------ *)
(* form_dependency                                                     *)

let form_dependency db dtype ti tj =
  match Dep.add db.deps dtype ~master:ti ~dependent:tj with
  | () ->
      if Trace.on () then
        Trace.emit (Trace.Dep { dtype = Dep_type.to_string dtype; master = ti; dependent = tj });
      bump db;
      true
  | exception Dep.Cycle_rejected _ -> false

(* ------------------------------------------------------------------ *)
(* abort: the section 4.2 algorithm                                    *)

(* Abort propagation must reach every dependent even when one of them is
   the transaction the current fiber is running (whose abort unwinds the
   body with [Txn_aborted]): perform all the aborts first and re-raise
   the self-unwind once at the end. *)
let abort_many_ref : (t -> Tid.t list -> unit) ref = ref (fun _ _ -> assert false)

(* Abort-path logging is best-effort: rollback must complete even when
   the log cannot take another byte (a [Disk_full] budget, real
   ENOSPC).  Returns whether the record was taken; a refused append is
   counted, not raised.  Simulated power loss is not an I/O error and
   still propagates. *)
let append_best_effort db record =
  try
    ignore (Log.append db.log record);
    true
  with Fault.Storage_error _ ->
    Asset_util.Stats.Counter.incr db.abort_log_misses;
    false

let rec finalize_abort db (td : td) =
  (* The abort is observable from here on (status is already Aborting),
     so the trace event precedes the undo and the lock releases — the
     oracle's strictness clause counts releases after it as legal. *)
  if Trace.on () then Trace.emit (Trace.Abort { tid = td.tid });
  (* Step 2: install before images for each update t_i is responsible
     for, newest first.  "This implies that subsequent updates done by
     cooperating transactions will also be lost."  Every installation
     is logged as a CLR so that recovery can repeat the undo instead of
     re-deriving it (see Asset_wal.Recovery). *)
  let lsns = List.sort (fun a b -> Int.compare b a) td.updates in
  let clr_missed = ref false in
  let append_clr record = if not (append_best_effort db record) then clr_missed := true in
  List.iter
    (fun lsn ->
      match Log.get db.log lsn with
      | Record.Update { oid; before; _ } ->
          append_clr (Record.Clr { tid = td.tid; oid; image = before; undo_lsn = lsn });
          (match before with
          | Some v -> Store.write db.store oid v
          | None -> Store.delete db.store oid)
      | Record.Increment { oid; delta; _ } ->
          (* Logical undo: subtract the delta from the *current* value,
             preserving concurrent transactions' commuting increments.
             The CLR carries the resulting physical image for redo and
             the compensated update's LSN as abort progress: should we
             crash before the Abort record, recovery must not subtract
             this delta a second time. *)
          let current =
            match Store.read db.store oid with Some v -> Value.to_int v | None -> 0
          in
          let image = Value.of_int (current - delta) in
          append_clr (Record.Clr { tid = td.tid; oid; image = Some image; undo_lsn = lsn });
          Store.write db.store oid image
      | Record.Enqueue { oid; item; _ } ->
          (* Logical undo, like Increment: remove the appended item
             from the current queue, preserving concurrent appends. *)
          let current =
            match Store.read db.store oid with Some v -> v | None -> Value.of_queue []
          in
          let image = Value.queue_remove_last current item in
          append_clr (Record.Clr { tid = td.tid; oid; image = Some image; undo_lsn = lsn });
          Store.write db.store oid image
      | _ -> ())
    lsns;
  td.updates <- [];
  (* Escrow reservations die with the transaction, and a read-only
     transaction's snapshot closes so version GC can advance. *)
  clear_escrow db td.tid;
  close_snapshot db td;
  (* Step 3: release all locks (and any pending requests). *)
  ignore (Lock.release_all db.locks td.tid);
  Lock.cancel_pending_all db.locks td.tid;
  Lock.remove_permits db.locks td.tid;
  (* Step 4: dependencies incoming to t_i (t_i is the master) force
     AD/GC dependents to abort.  A group-commit dependency is symmetric
     ("either both commit or neither"), so GC edges where t_i is the
     *dependent* doom the master as well. *)
  let incoming = Dep.incoming db.deps td.tid in
  let must_abort =
    List.filter_map
      (fun e ->
        match e.Dep.dtype with
        | Dep_type.AD | Dep_type.GC -> Some e.Dep.dependent
        | Dep_type.CD | Dep_type.BD | Dep_type.EXC -> None)
      incoming
    @ List.filter_map
        (fun e -> match e.Dep.dtype with Dep_type.GC -> Some e.Dep.master | _ -> None)
        (Dep.outgoing db.deps td.tid)
  in
  (* Extension: a BD dependent of an aborted master may never begin;
     the edge is about to be dropped, so record the denial in the TD. *)
  List.iter
    (fun e ->
      if e.Dep.dtype = Dep_type.BD then begin
        match Hashtbl.find_opt db.tds e.Dep.dependent with
        | Some dep_td -> dep_td.begin_denied <- true
        | None -> ()
      end)
    incoming;
  (* Step 5: remove remaining dependencies pertaining to t_i. *)
  Dep.remove_involving db.deps td.tid;
  (* Step 6: terminate.  The Abort record asserts "every undo of this
     transaction is in the log as a CLR" — recovery replays the CLRs
     and does not re-derive the undo.  If any CLR append was refused
     (ENOSPC can reject a large CLR yet still fit the small Abort
     frame), writing Abort would orphan that update's undo forever, so
     the record is withheld: the transaction stays an unresolved loser
     and recovery re-derives the remainder, skipping exactly the
     CLR-covered prefix via the back-links. *)
  if !clr_missed then Asset_util.Stats.Counter.incr db.abort_log_misses
  else ignore (append_best_effort db (Record.Abort td.tid));
  td.status <- Status.Aborted;
  Asset_util.Stats.Counter.incr db.aborts;
  bump db;
  (* Propagate: abort AD/GC dependents (the paper marks them aborting;
     we perform the full abort eagerly, which reaches the same state
     without relying on the dependent to take another step). *)
  !abort_many_ref db must_abort

and abort db tid =
  let td = td db tid in
  match td.status with
  | Status.Committed -> false
  | Status.Aborted -> true
  | Status.Aborting ->
      (* Someone is already aborting it; treat as success. *)
      true
  | Status.Initiated | Status.Running | Status.Completed | Status.Committing ->
      td.status <- Status.Aborting;
      finalize_abort db td;
      (* If the caller is the transaction itself, unwind its body. *)
      (match self_opt db with
      | Some me when Tid.equal me tid -> raise (Txn_aborted tid)
      | _ -> ());
      true

(* Abort each of [tids], deferring a self-unwind ([Txn_aborted] raised
   when one of them is the current fiber's own transaction) until every
   abort has completed. *)
let abort_many db tids =
  let self_unwind = ref None in
  List.iter
    (fun tid ->
      try ignore (abort db tid) with Txn_aborted _ as e -> self_unwind := Some e)
    tids;
  match !self_unwind with Some e -> raise e | None -> ()

let () =
  abort_ref := abort;
  abort_many_ref := abort_many

(* ------------------------------------------------------------------ *)
(* commit: the section 4.2 algorithm                                   *)

(* One attempt at the dependency-resolution steps for [tid] (steps 2-3).
   Returns [`Ready] when every CD/AD/EXC obligation is resolved,
   [`Retry reason] when the paper says "blocks and retries later", and
   [`Must_abort] when an AD master aborted or an EXC partner already
   committed. *)
let resolve_non_gc_deps db tid =
  let out = Dep.outgoing db.deps tid in
  let rec check = function
    | [] -> `Ready
    | e :: rest -> (
        match e.Dep.dtype with
        | Dep_type.GC | Dep_type.BD -> check rest
        | Dep_type.AD -> (
            match status db e.Dep.master with
            | Status.Committed -> check rest
            | Status.Aborted | Status.Aborting -> `Must_abort
            | _ -> `Retry (Format.asprintf "AD on %a" Tid.pp e.Dep.master))
        | Dep_type.CD -> (
            match status db e.Dep.master with
            | Status.Committed | Status.Aborted -> check rest
            | _ -> `Retry (Format.asprintf "CD on %a" Tid.pp e.Dep.master))
        | Dep_type.EXC -> (
            match status db e.Dep.master with
            | Status.Committed -> `Must_abort
            | _ -> check rest))
  in
  match check out with
  | `Ready ->
      (* EXC is symmetric: a committed partner on either side excludes us. *)
      if List.exists (fun p -> is_committed db p) (Dep.exc_partners db.deps tid) then `Must_abort
      else `Ready
  | r -> r

(* ------------------------------------------------------------------ *)
(* Fuzzy checkpointing                                                 *)

(* Snapshot the active-transaction table for a Begin_ckpt record: for
   every live transaction, the undo information of each update it is
   currently responsible for, resolved from the in-memory log at the
   updates' real LSNs.  Delegation is already reflected — td.updates
   holds exactly what this transaction would have to undo — and any
   delegation logged after the checkpoint re-attributes the captured
   entries during recovery's tail scan.  The scheduler is cooperative
   and this runs without yielding, so the capture is a consistent cut
   even though transactions are mid-flight ("fuzzy" refers to the
   store, not the table). *)
let capture_att db =
  Hashtbl.fold
    (fun tid (td : td) acc ->
      if Status.active td.status then begin
        let att_updates =
          List.filter_map
            (fun lsn ->
              match Log.get db.log lsn with
              | Record.Update { oid; before; after; _ } ->
                  Some { Record.cu_lsn = lsn; cu_oid = oid; cu_undo = Record.Ckpt_physical before; cu_after = after }
              | Record.Increment { oid; delta; after; _ } ->
                  Some { Record.cu_lsn = lsn; cu_oid = oid; cu_undo = Record.Ckpt_delta delta; cu_after = after }
              | Record.Enqueue { oid; item; after; _ } ->
                  Some { Record.cu_lsn = lsn; cu_oid = oid; cu_undo = Record.Ckpt_dequeue item; cu_after = after }
              | _ -> None)
            td.updates
          |> List.sort (fun a b -> Int.compare a.Record.cu_lsn b.Record.cu_lsn)
        in
        { Record.att_tid = tid; att_updates } :: acc
      end
      else acc)
    db.tds []

(* Non-quiescent checkpoint: capture the ATT, log Begin_ckpt / flush /
   End_ckpt (see [Recovery.checkpoint]), then retire log
   segments wholly below the new redo watermark.  Pending group-commit
   records are forced (and acknowledged) first so the commit ack
   bookkeeping stays in step with the checkpoint's own force. *)
let checkpoint db =
  flush_pending_commits db;
  let active = capture_att db in
  let dirty =
    List.concat_map (fun (e : Record.att_entry) -> List.map (fun u -> u.Record.cu_oid) e.att_updates) active
    |> List.sort_uniq Oid.compare
  in
  let begin_lsn = Asset_wal.Recovery.checkpoint db.log db.store ~active ~dirty in
  db.ckpt_bytes_mark <- Log.appended_bytes db.log;
  Asset_util.Stats.Counter.incr db.fuzzy_ckpts;
  ignore (Log.retire db.log ~below:begin_lsn);
  bump db;
  begin_lsn

(* The commit-path trigger: once [checkpoint_log_bytes] of log have
   accumulated since the last checkpoint, take one.  A checkpoint that
   fails with an I/O error must not fail the commit that tripped it —
   the commit is already durable and an incomplete Begin/End pair is
   ignored by recovery — so back off a full threshold and let a later
   commit retry.  Simulated power loss still propagates. *)
let maybe_checkpoint db =
  let threshold = db.config.checkpoint_log_bytes in
  if threshold > 0 && Log.appended_bytes db.log - db.ckpt_bytes_mark >= threshold then
    try ignore (checkpoint db)
    with Fault.Storage_error _ -> db.ckpt_bytes_mark <- Log.appended_bytes db.log

(* Commit the whole [group] atomically (step 4 onward), "simultaneously
   executed for all the transactions in the group". *)
let commit_group db group =
  (* Publish the group's effects to the version store before the
     commit becomes observable.  The members' log records are replayed
     in LSN order over the newest *committed* versions: replaying the
     deltas (rather than installing the raw after-images, which may
     embed a concurrent transaction's uncommitted increments or
     enqueues on the same object) guarantees only committed state ever
     enters a chain. *)
  let m = mvcc db in
  let lsns =
    List.concat_map (fun tid -> (td db tid).updates) group |> List.sort Int.compare
  in
  let images : (Oid.t, Value.t) Hashtbl.t = Hashtbl.create 8 in
  let committed_base oid =
    match Hashtbl.find_opt images oid with
    | Some v -> Some v
    | None -> m.Store.committed_head oid
  in
  List.iter
    (fun lsn ->
      match Log.get db.log lsn with
      | Record.Update { oid; after; _ } -> Hashtbl.replace images oid after
      | Record.Increment { oid; delta; _ } ->
          let base = match committed_base oid with Some v -> Value.to_int v | None -> 0 in
          Hashtbl.replace images oid (Value.of_int (base + delta))
      | Record.Enqueue { oid; item; _ } ->
          let base = match committed_base oid with Some v -> v | None -> Value.of_queue [] in
          Hashtbl.replace images oid (Value.queue_push base item)
      | _ -> ())
    lsns;
  let ts = m.Store.stamp_commit () in
  Hashtbl.iter (fun oid v -> m.Store.publish oid ts v) images;
  (* Group commit: stage the commit record; the scheduler's quiescence
     hook forces every staged record at once, when no fiber can run.
     An in-memory log is already "forced" through the record, so
     nothing is staged and nobody waits. *)
  let commit_lsn = Log.append db.log (Record.Commit group) in
  (* The whole group commits atomically here: one trace event carrying
     every member, emitted before any member's locks drop so the
     oracle's strictness clause sees commit-then-release. *)
  if Trace.on () then Trace.emit (Trace.Commit { tids = group; ts });
  if Log.forced_lsn db.log < commit_lsn then begin
    db.staged_commit_lsn <- commit_lsn;
    db.staged_commit_txns <- db.staged_commit_txns + List.length group
  end;
  List.iter
    (fun tid ->
      let td = td db tid in
      td.status <- Status.Committed;
      td.commit_lsn <- commit_lsn;
      td.updates <- [];
      clear_escrow db tid;
      close_snapshot db td;
      Asset_util.Stats.Counter.incr db.commits;
      (* Step 5: drop dependency edges; step 6: release locks and
         permissions. *)
      Dep.remove_involving db.deps tid;
      ignore (Lock.release_all db.locks tid);
      Lock.remove_permits db.locks tid)
    group;
  (* Exclusion: committing excludes every EXC partner of each member.
     Partners were collected before edges were dropped — but since
     remove_involving already ran, collect first. *)
  bump db;
  maybe_checkpoint db

(* The WAL acknowledgment rule: [commit] may only return true once the
   transaction's commit record has reached a forced LSN.  A commit
   staged but not yet forced is *not* durable — a crash in the window
   must make the transaction a loser — so the acknowledgment parks
   until the quiescence flush forces the batch. *)
let await_commit_durable db (t : td) =
  let rec wait () =
    if t.commit_lsn >= 0 && Log.forced_lsn db.log < t.commit_lsn then begin
      let v = db.version in
      wait_for_change db ~reason:"commit: awaiting force" v;
      wait ()
    end
  in
  wait ()

let rec commit db tid =
  let t = td db tid in
  match t.status with
  | Status.Committed ->
      await_commit_durable db t;
      true
  | Status.Aborted -> false
  | Status.Aborting ->
      (* Step 1: "If it is aborting, perform the steps of the abort
         algorithm."  finalize_abort is idempotent at this point
         because abort() transitions synchronously; just report. *)
      false
  | Status.Initiated | Status.Running ->
      (* commit is blocking: wait for the execution to complete. *)
      let v = db.version in
      wait_for_change db ~reason:(Format.asprintf "commit(%a): awaiting completion" Tid.pp tid) v;
      commit db tid
  | Status.Completed | Status.Committing -> attempt_commit db tid

and attempt_commit db tid =
  let t = td db tid in
  t.status <- Status.Committing;
  (* Mark our side of every GC edge (step 2c-i). *)
  List.iter (fun e -> Dep.mark_gc e tid) (Dep.gc_edges db.deps tid);
  match resolve_non_gc_deps db tid with
  | `Must_abort ->
      ignore (abort db tid);
      false
  | `Retry reason ->
      Asset_util.Stats.Counter.incr db.commit_retries;
      let v = db.version in
      wait_for_change db ~reason:(Format.asprintf "commit(%a): %s" Tid.pp tid reason) v;
      commit db tid
  | `Ready -> (
      let group = Dep.gc_group db.deps tid in
      (* Check the group: every member must reach Committing with its own
         non-GC dependencies resolved; an aborted member fails the group. *)
      let classify m =
        match status db m with
        | Status.Aborted | Status.Aborting -> `Abort
        | Status.Committed -> `Ok (* already committed via an earlier group *)
        | Status.Committing -> ( match resolve_non_gc_deps db m with
            | `Ready -> `Ok
            | `Retry r -> `Wait r
            | `Must_abort -> `Abort)
        | Status.Completed ->
            (* Step 2c-ii: t_j has not yet invoked commit — invoke it on
               its behalf by entering its commit path. *)
            `Invoke
        | Status.Initiated | Status.Running -> `Wait (Format.asprintf "group member %a still executing" Tid.pp m)
      in
      let verdicts = List.map (fun m -> (m, classify m)) group in
      if List.exists (fun (_, v) -> v = `Abort) verdicts then begin
        (* GC: either all commit or none. *)
        abort_many db
          (List.filter_map
             (fun (m, _) -> if is_aborted db m then None else Some m)
             verdicts);
        false
      end
      else
        match List.find_opt (fun (_, v) -> v = `Invoke) verdicts with
        | Some (m, _) ->
            (* Entering the member's commit marks it Committing and
               resolves its dependencies (possibly parking this fiber,
               which is exactly the paper's behaviour: the group cannot
               commit before m can). *)
            ignore (attempt_commit db m);
            commit db tid
        | None ->
            if List.exists (fun (_, v) -> match v with `Wait _ -> true | _ -> false) verdicts
            then begin
              Asset_util.Stats.Counter.incr db.commit_retries;
              let v = db.version in
              wait_for_change db ~reason:(Format.asprintf "commit(%a): group not ready" Tid.pp tid) v;
              commit db tid
            end
            else begin
              (* Every member is Committing and resolved: commit the
                 group atomically. *)
              let exc_losers =
                List.concat_map (fun m -> Dep.exc_partners db.deps m) group
                |> List.filter (fun p -> not (List.exists (Tid.equal p) group))
              in
              commit_group db group;
              (* Committing one side of an exclusion forces the other to
                 abort. *)
              abort_many db
                (List.filter (fun p -> not (is_terminated db p)) (List.sort_uniq Tid.compare exc_losers));
              await_commit_durable db (td db tid);
              true
            end)

(* ------------------------------------------------------------------ *)
(* Introspection and stats                                             *)

let active_transactions db =
  Hashtbl.fold (fun tid td acc -> if Status.active td.status then tid :: acc else acc) db.tds []

let version db = db.version
let store db = db.store
let log db = db.log
let locks db = db.locks
let deps db = db.deps
let transaction_count db = Hashtbl.length db.tds

(* Version-store introspection, for GC-bound tests and bench reports. *)
let mvcc_current_ts db = (mvcc db).Store.current_ts ()
let mvcc_max_chain db = (mvcc db).Store.max_chain ()
let mvcc_version_count db = (mvcc db).Store.version_count ()

(* Deadlock resolution hook for the scheduler: abort the youngest
   member of a waits-for cycle.  Returns true when it made progress. *)
let resolve_deadlock db () =
  let resolved =
    if not db.config.deadlock_detection then false
    else begin
      match Lock.find_cycle db.locks with
      | Some (victim :: _ as cycle) ->
          let youngest = List.fold_left (fun a b -> if Tid.compare a b >= 0 then a else b) victim cycle in
          Logs.debug (fun m -> m "deadlock: aborting victim %a" Tid.pp youngest);
          Asset_util.Stats.Counter.incr db.deadlock_victims;
          ignore (abort db youngest);
          true
      | Some [] | None -> false
    end
  in
  if resolved then true
  else if
    (* Lock-wait timeout tick: parked lock waiters can't advance their
       retry counters while the version is frozen, so a stall with live
       lock waiters bumps the version to force another retry round;
       after [lock_wait_timeout_steps] rounds the waiter aborts itself
       with [Lock_timeout].  Guarded on an actual lock waiter existing
       (a pending request in the lock manager), or a stall caused by
       something else would tick forever. *)
    db.config.lock_wait_timeout_steps > 0 && Lock.has_pending db.locks
  then begin
    bump db;
    true
  end
  else false

(* Number of distinct in-flight escrow reservations.  A leak gauge for
   the shard layer: after every transaction on an engine has
   terminated, this must be zero. *)
let escrow_inflight_count db = Hashtbl.length db.escrow_inflight

(* Spawn an auxiliary fiber (e.g. a per-transaction committer in a
   workload harness).  Not a transaction: [self] inside it is null. *)
let spawn db ~label f = ignore (Sched.spawn (sched db) ~label f)

(* Park the current fiber until every transaction in [tids] has
   terminated. *)
let await_terminated db tids =
  (* Terminated-ness only changes on a version bump, so the wait can be
     version-keyed. *)
  Sched.wait_until ~reason:"await batch termination" ~watch:db.version (fun () ->
      List.for_all (fun t -> Status.terminated (status db t)) tids)

let attach_scheduler db s =
  db.sched <- Some s;
  Sched.set_on_stall s (resolve_deadlock db);
  Sched.set_clock s (fun () -> db.version);
  Sched.set_on_quiesce s (fun () -> flush_pending_commits db)

(* The engine's own stall step, exposed so an outer layer (the shard
   server) can compose it into a richer [on_stall] hook — e.g. "drain
   the cross-domain mailbox first, then let the engine break local
   deadlocks, then block on the mailbox". *)
let resolve_stall db = resolve_deadlock db ()

(* Retry bookkeeping for harness-level bounded retry (the workload
   layer's combinator reports here so [stats] shows resilience figures
   next to the engine's own counters). *)
let note_retry db = Asset_util.Stats.Counter.incr db.retries
let note_give_up db = Asset_util.Stats.Counter.incr db.gave_up

(* Statistics discipline: [stats] (and every per-layer [stats]) is a
   pure read — no counter is ever reset by reading it.  This is the one
   explicit reset point, clearing the engine's own counters and the
   lock/dependency managers' through their own [reset_stats]. *)
let reset_stats db =
  List.iter Asset_util.Stats.Counter.reset
    [
      db.commits;
      db.aborts;
      db.group_commits;
      db.lock_waits;
      db.commit_retries;
      db.deadlock_victims;
      db.lock_timeouts;
      db.retries;
      db.gave_up;
      db.reads;
      db.writes;
      db.snapshot_reads;
      db.escrow_ops;
      db.escrow_violations;
      db.enqueues;
      db.fuzzy_ckpts;
      db.abort_log_misses;
    ];
  Lock.reset_stats db.locks;
  Dep.reset_stats db.deps

let stats db =
  [
    ("commits", Asset_util.Stats.Counter.get db.commits);
    ("aborts", Asset_util.Stats.Counter.get db.aborts);
    ("group_commits", Asset_util.Stats.Counter.get db.group_commits);
    ("lock_waits", Asset_util.Stats.Counter.get db.lock_waits);
    ("commit_retries", Asset_util.Stats.Counter.get db.commit_retries);
    ("deadlock_victims", Asset_util.Stats.Counter.get db.deadlock_victims);
    ("lock_timeouts", Asset_util.Stats.Counter.get db.lock_timeouts);
    ("retries", Asset_util.Stats.Counter.get db.retries);
    ("gave_up", Asset_util.Stats.Counter.get db.gave_up);
    ("reads", Asset_util.Stats.Counter.get db.reads);
    ("writes", Asset_util.Stats.Counter.get db.writes);
    ("snapshot_reads", Asset_util.Stats.Counter.get db.snapshot_reads);
    ("escrow_ops", Asset_util.Stats.Counter.get db.escrow_ops);
    ("escrow_violations", Asset_util.Stats.Counter.get db.escrow_violations);
    ("enqueues", Asset_util.Stats.Counter.get db.enqueues);
    ("fuzzy_ckpts", Asset_util.Stats.Counter.get db.fuzzy_ckpts);
    ("abort_log_misses", Asset_util.Stats.Counter.get db.abort_log_misses);
  ]
  @ List.map (fun (k, v) -> ("lock." ^ k, v)) (Lock.stats db.locks)
  @ List.map (fun (k, v) -> ("deps." ^ k, v)) (Dep.stats db.deps)

let pp_stats ppf db =
  List.iter (fun (k, v) -> Format.fprintf ppf "%-24s %d@." k v) (stats db)
