(* The lock manager: object descriptors (OD), lock request descriptors
   (LRD) and permit descriptors (PD), implementing the read-lock /
   write-lock algorithm of section 4.2 including permit-driven
   suspension of conflicting granted locks.

   Figure 1 of the paper shows the OD pointing at three lists — granted
   lock requests, pending lock requests, and permissions; an OD here is
   exactly those three plain lists, newest entry first (see [pp_od],
   which renders the figure's structure).  Each lock fact is stored
   once more, from the transaction's side: per-transaction tables
   (granted and pending separately, oid -> lrd) answer "does t hold or
   request ob?" and let delegation, release and pending-cancellation
   traverse only the transaction's own descriptors; PDs are doubly
   indexed by grantor and grantee tid, as the paper prescribes
   ("doubly hashed on the tid of the two transactions involved").
   Removal from an OD list filters it by physical equality, at the
   O(holders) cost the conflict scan already pays.  An OD exists only
   while one of its lists is non-empty, so the lock table is bounded by
   the live locks, requests and permits.

   The three lists fully determine who waits for whom, so the waits-for
   graph is not stored: [waits_for], [waits_edges] and [find_cycle]
   derive it on demand from the per-transaction pending table, giving
   each pending request the holders that block it ([blockers_of]).  Its
   cost depends on the pending requests only, not on how many objects
   or transactions exist. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Trace = Asset_obs.Trace

let mode_char = function
  | Mode.Read -> 'R'
  | Mode.Write -> 'W'
  | Mode.Increment -> 'I'
  | Mode.Escrow -> 'E'
  | Mode.Enqueue -> 'Q'
  | Mode.Snapshot -> 'S'

(* Lock-transition trace events ([Trace.on] gates every call site, so
   the untraced cost is one load and one branch). *)
let trace_lock action tid oid mode =
  Trace.emit (Trace.Lock { tid; oid; mode = mode_char mode; action })

type lock_status = Granted | Suspended | Pending | Upgrading

let pp_status ppf = function
  | Granted -> Format.pp_print_string ppf "granted"
  | Suspended -> Format.pp_print_string ppf "suspended"
  | Pending -> Format.pp_print_string ppf "pending"
  | Upgrading -> Format.pp_print_string ppf "upgrading"

type lrd = {
  lrd_tid : Tid.t;
  lrd_oid : Oid.t;
  mutable lrd_mode : Mode.t;
  mutable lrd_status : lock_status;
}

type pd = {
  pd_oid : Oid.t;
  mutable pd_grantor : Tid.t; (* mutable: delegation rewrites the grantor *)
  pd_grantee : Tid.t option; (* None = any transaction *)
  pd_ops : Mode.Ops.t;
}

(* The Figure-1 object descriptor: three lists, newest entry first. *)
type od = {
  od_oid : Oid.t;
  mutable granted : lrd list; (* granted + suspended requests *)
  mutable pending : lrd list; (* blocked + upgrading requests *)
  mutable permits : pd list;
}

type t = {
  objects : (Oid.t, od) Hashtbl.t; (* only ODs with a non-empty list *)
  by_txn : (Tid.t, (Oid.t, lrd) Hashtbl.t) Hashtbl.t; (* granted LRDs, from the TD *)
  pending_by_txn : (Tid.t, (Oid.t, lrd) Hashtbl.t) Hashtbl.t;
  permits_by_grantor : (Tid.t, pd list ref) Hashtbl.t;
  permits_by_grantee : (Tid.t, pd list ref) Hashtbl.t;
  acquires : Asset_util.Stats.Counter.t;
  blocks : Asset_util.Stats.Counter.t;
  suspensions : Asset_util.Stats.Counter.t;
  permit_grants : Asset_util.Stats.Counter.t;
  cycle_checks : Asset_util.Stats.Counter.t;
}

let create () =
  {
    objects = Hashtbl.create 256;
    by_txn = Hashtbl.create 64;
    pending_by_txn = Hashtbl.create 64;
    permits_by_grantor = Hashtbl.create 64;
    permits_by_grantee = Hashtbl.create 64;
    acquires = Asset_util.Stats.Counter.create "lock.acquires";
    blocks = Asset_util.Stats.Counter.create "lock.blocks";
    suspensions = Asset_util.Stats.Counter.create "lock.suspensions";
    permit_grants = Asset_util.Stats.Counter.create "lock.permit_grants";
    cycle_checks = Asset_util.Stats.Counter.create "lock.cycle_checks";
  }

let od t oid =
  match Hashtbl.find_opt t.objects oid with
  | Some od -> od
  | None ->
      let od = { od_oid = oid; granted = []; pending = []; permits = [] } in
      Hashtbl.replace t.objects oid od;
      od

(* An OD whose three lists are all empty carries no information: drop
   it, so the lock table holds only objects something is locked,
   requested or permitted on. *)
let free_if_empty t obj =
  if obj.granted = [] && obj.pending = [] && obj.permits = [] then Hashtbl.remove t.objects obj.od_oid

let without x l = List.filter (fun y -> y != x) l

let txn_table table tid =
  match Hashtbl.find_opt table tid with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace table tid h;
      h

(* [tid]'s LRD on [oid] in a per-transaction table, if any. *)
let txn_lrd table tid oid =
  match Hashtbl.find_opt table tid with Some h -> Hashtbl.find_opt h oid | None -> None

let index_list table tid =
  match Hashtbl.find_opt table tid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace table tid l;
      l

(* ------------------------------------------------------------------ *)
(* Permits                                                             *)

(* Does [grantor] permit [grantee] to perform [op] on this object,
   directly or transitively?  Rule 3 of the permit semantics makes
   permission transitive with operation-set intersection:
   permit(ti,tj,ops) and permit(tj,tk,ops') act as permit(ti,tk,
   ops∩ops').  We search the OD's permit list for a chain from grantor
   to grantee every link of which (and hence the intersection) includes
   [op]; a PD with [pd_grantee = None] reaches any transaction.  An
   empty permit list answers at once. *)
let permits_op obj ~grantor ~grantee op =
  obj.permits <> []
  &&
  let rec reachable visited current =
    Tid.equal current grantee
    || (not (List.exists (Tid.equal current) visited))
       && List.exists
            (fun pd ->
              Tid.equal pd.pd_grantor current
              && Mode.Ops.mem op pd.pd_ops
              &&
              match pd.pd_grantee with
              | None -> true (* open permission reaches everyone, incl. grantee *)
              | Some next -> reachable (current :: visited) next)
            obj.permits
  in
  reachable [] grantor

(* Step 1b's conflict test, permits aside: does granted or suspended
   [gl] conflict with [tid] requesting [mode]?  A suspended lock still
   guards its holder's uncommitted operations against third parties. *)
let conflicting gl tid mode =
  (not (Tid.equal gl.lrd_tid tid))
  && (gl.lrd_status = Granted || gl.lrd_status = Suspended)
  && Mode.conflicts gl.lrd_mode mode

(* The waits-for predicate, shared by [grantable] and the waits-for
   graph: [gl] blocks [tid] requesting [mode] when it conflicts and no
   permit excuses the conflict — exactly what step 1b blocks on. *)
let blocks_waiter obj tid mode gl =
  conflicting gl tid mode && not (permits_op obj ~grantor:gl.lrd_tid ~grantee:tid mode)

let blockers_of obj p =
  List.fold_left
    (fun acc gl -> if blocks_waiter obj p.lrd_tid p.lrd_mode gl then gl.lrd_tid :: acc else acc)
    [] obj.granted
  |> List.sort_uniq Tid.compare

let add_permit t ~grantor ~grantee ~oid ~ops =
  if Mode.Ops.is_empty ops then ()
  else begin
    let obj = od t oid in
    let pd = { pd_oid = oid; pd_grantor = grantor; pd_grantee = grantee; pd_ops = ops } in
    obj.permits <- pd :: obj.permits;
    let gl = index_list t.permits_by_grantor grantor in
    gl := pd :: !gl;
    (match grantee with
    | Some g ->
        let el = index_list t.permits_by_grantee g in
        el := pd :: !el
    | None -> ());
    Asset_util.Stats.Counter.incr t.permit_grants
  end

(* Objects a transaction has accessed (holds an LRD on) or has been
   permitted to access — the traversal used by permit(ti, tj, op). *)
let accessible_objects t tid =
  let locked =
    match Hashtbl.find_opt t.by_txn tid with
    | None -> []
    | Some h -> Hashtbl.fold (fun oid _ acc -> oid :: acc) h []
  in
  let permitted =
    match Hashtbl.find_opt t.permits_by_grantee tid with
    | None -> []
    | Some pds -> List.map (fun pd -> pd.pd_oid) !pds
  in
  List.sort_uniq Oid.compare (locked @ permitted)

(* ------------------------------------------------------------------ *)
(* Acquisition: the section 4.2 read-lock / write-lock algorithm        *)

type outcome = Acquired | Blocked_on of Tid.t list

(* Drop [tid]'s pending request on [obj], if any.  The OD is not freed
   here: [acquire] calls this just before granting on the same OD. *)
let remove_pending t obj tid =
  match Hashtbl.find_opt t.pending_by_txn tid with
  | None -> ()
  | Some h -> (
      match Hashtbl.find_opt h obj.od_oid with
      | None -> ()
      | Some p ->
          obj.pending <- without p obj.pending;
          Hashtbl.remove h obj.od_oid;
          if Hashtbl.length h = 0 then Hashtbl.remove t.pending_by_txn tid)

(* Step 1a: [tid] holds an unsuspended lock on the object that covers
   [mode]. *)
let covered gl mode = gl.lrd_status <> Suspended && Mode.covers ~held:gl.lrd_mode ~requested:mode

(* Step 1b: check every conflicting lock gl in the granted list against
   the permit list; permitted conflicts suspend gl, unpermitted ones
   block (the split [blocks_waiter] makes).  One pass over the granted
   list.  Returns the blockers, or [] if the way is clear (after
   suspensions). *)
let check_conflicts t obj tid mode =
  let blockers = ref [] in
  let to_suspend = ref [] in
  List.iter
    (fun gl ->
      if conflicting gl tid mode then
        if permits_op obj ~grantor:gl.lrd_tid ~grantee:tid mode then begin
          if gl.lrd_status = Granted then to_suspend := gl :: !to_suspend
        end
        else blockers := gl.lrd_tid :: !blockers)
    obj.granted;
  if !blockers = [] then begin
    List.iter
      (fun gl ->
        gl.lrd_status <- Suspended;
        if Trace.on () then trace_lock Trace.Suspend gl.lrd_tid obj.od_oid gl.lrd_mode;
        Asset_util.Stats.Counter.incr t.suspensions)
      !to_suspend;
    []
  end
  else List.sort_uniq Tid.compare !blockers

(* Would step 1a or 1b succeed now?  Side-effect free: a parked
   requester's wake condition. *)
let grantable t tid oid mode =
  match txn_lrd t.by_txn tid oid with
  | Some gl when covered gl mode -> true
  | _ -> (
      match Hashtbl.find_opt t.objects oid with
      | None -> true
      | Some obj -> not (List.exists (blocks_waiter obj tid mode) obj.granted))

let acquire t tid oid mode =
  let obj = od t oid in
  match txn_lrd t.by_txn tid oid with
  | Some gl when covered gl mode ->
      (* Step 1a: an unsuspended covering lock of our own.  It may have
         been delegated to us while this request was pending, which the
         request no longer is. *)
      remove_pending t obj tid;
      Acquired
  | existing -> (
      if Trace.on () then trace_lock Trace.Request tid oid mode;
      match check_conflicts t obj tid mode with
      | [] ->
          (* Step 2: t_i can now lock ob. *)
          remove_pending t obj tid;
          (match existing with
          | Some gl ->
              (* 2b: change the lock mode / remove suspension. *)
              let upgraded = not (Mode.covers ~held:gl.lrd_mode ~requested:mode) in
              if upgraded then gl.lrd_mode <- Mode.join gl.lrd_mode mode;
              let resumed = gl.lrd_status = Suspended in
              gl.lrd_status <- Granted;
              if Trace.on () then
                trace_lock (if upgraded then Trace.Upgrade else if resumed then Trace.Resume else Trace.Grant)
                  tid oid gl.lrd_mode;
              Asset_util.Stats.Counter.incr t.acquires
          | None ->
              (* 2a: create an LRD and link it from the OD and the TD. *)
              let lrd = { lrd_tid = tid; lrd_oid = oid; lrd_mode = mode; lrd_status = Granted } in
              obj.granted <- lrd :: obj.granted;
              Hashtbl.replace (txn_table t.by_txn tid) oid lrd;
              if Trace.on () then trace_lock Trace.Grant tid oid mode;
              Asset_util.Stats.Counter.incr t.acquires);
          Acquired
      | blockers ->
          (* Register a pending request (status upgrading when we already
             hold a weaker lock), so the OD shows the Figure-1 pending
             list and waits-for extraction sees the edge. *)
          (match txn_lrd t.pending_by_txn tid oid with
          | Some p -> p.lrd_mode <- mode
          | None ->
              let status = if existing <> None then Upgrading else Pending in
              let p = { lrd_tid = tid; lrd_oid = oid; lrd_mode = mode; lrd_status = status } in
              obj.pending <- p :: obj.pending;
              Hashtbl.replace (txn_table t.pending_by_txn tid) oid p);
          if Trace.on () then trace_lock Trace.Block tid oid mode;
          Asset_util.Stats.Counter.incr t.blocks;
          Blocked_on blockers)

(* Withdraw [tid]'s pending requests on the objects [covers] accepts. *)
let withdraw_pending t tid covers =
  match Hashtbl.find_opt t.pending_by_txn tid with
  | None -> ()
  | Some h ->
      Hashtbl.fold (fun oid _ acc -> if covers oid then oid :: acc else acc) h []
      |> List.iter (fun oid ->
             let obj = Hashtbl.find t.objects oid in
             remove_pending t obj tid;
             free_if_empty t obj)

(* Drop every pending request of [tid]; used when a waiting transaction
   is aborted (e.g. as a deadlock victim).  The per-transaction pending
   table makes this O(own pending requests), not O(objects). *)
let cancel_pending_all t tid = withdraw_pending t tid (fun _ -> true)

(* A suspended lock resumes when no granted lock conflicts with it any
   more (section 4.2 step 2b "remove suspension status" happens through
   re-acquisition; release-time resumption keeps cooperating
   transactions live without forcing a retry loop). *)
let resume_suspended obj =
  List.iter
    (fun sl ->
      if sl.lrd_status = Suspended then begin
        let conflicting =
          List.exists
            (fun gl ->
              (not (Tid.equal gl.lrd_tid sl.lrd_tid))
              && gl.lrd_status = Granted
              && Mode.conflicts gl.lrd_mode sl.lrd_mode)
            obj.granted
        in
        if not conflicting then begin
          sl.lrd_status <- Granted;
          if Trace.on () then trace_lock Trace.Resume sl.lrd_tid obj.od_oid sl.lrd_mode
        end
      end)
    obj.granted

(* ------------------------------------------------------------------ *)
(* Release, delegation, cleanup                                        *)

(* Release all locks held by a transaction; returns the object ids that
   were locked (the engine uses them to wake waiters). *)
let release_all t tid =
  match Hashtbl.find_opt t.by_txn tid with
  | None -> []
  | Some h ->
      let lrds = Hashtbl.fold (fun _ l acc -> l :: acc) h [] in
      Hashtbl.remove t.by_txn tid;
      List.iter
        (fun lrd ->
          if Trace.on () then trace_lock Trace.Release lrd.lrd_tid lrd.lrd_oid lrd.lrd_mode;
          let obj = Hashtbl.find t.objects lrd.lrd_oid in
          obj.granted <- without lrd obj.granted;
          resume_suspended obj;
          free_if_empty t obj)
        lrds;
      List.map (fun l -> l.lrd_oid) lrds

(* Remove permissions given by and given to [tid] (commit step 6 /
   abort cleanup).  Each PD is removed eagerly from its OD and from the
   *other* party's index entry, which goes once empty (the other party
   may have terminated already), so no full-table purge is ever
   needed. *)
let remove_permits t tid =
  let drop_from_od pd =
    match Hashtbl.find_opt t.objects pd.pd_oid with
    | Some obj ->
        obj.permits <- without pd obj.permits;
        free_if_empty t obj
    | None -> ()
  in
  let unindex table other pd =
    match Hashtbl.find_opt table other with
    | Some l -> ( match without pd !l with [] -> Hashtbl.remove table other | rest -> l := rest)
    | None -> ()
  in
  (match Hashtbl.find_opt t.permits_by_grantor tid with
  | Some l ->
      List.iter
        (fun pd ->
          drop_from_od pd;
          match pd.pd_grantee with
          | Some g when not (Tid.equal g tid) -> unindex t.permits_by_grantee g pd
          | _ -> ())
        !l
  | None -> ());
  (match Hashtbl.find_opt t.permits_by_grantee tid with
  | Some l ->
      List.iter
        (fun pd ->
          drop_from_od pd;
          if not (Tid.equal pd.pd_grantor tid) then unindex t.permits_by_grantor pd.pd_grantor pd)
        !l
  | None -> ());
  Hashtbl.remove t.permits_by_grantor tid;
  Hashtbl.remove t.permits_by_grantee tid

(* delegate(ti, tj, ob_set): move the LRDs on the named objects from ti
   to tj and rewrite PDs granted by ti on them to be granted by tj.
   When tj already holds a lock on the same object the two requests
   merge, keeping the stronger mode.  ti's *pending* requests on the
   delegated objects are cancelled: responsibility for performed
   operations moves, but an in-flight request is simply withdrawn (a
   blocked requester re-registers it on its next retry), so no orphaned
   pending entries survive the delegation. *)
let delegate t ~from_ ~to_ oids =
  let covers oid = match oids with None -> true | Some l -> List.exists (Oid.equal oid) l in
  let from_h = txn_table t.by_txn from_ in
  let moving =
    Hashtbl.fold (fun _ lrd acc -> if covers lrd.lrd_oid then lrd :: acc else acc) from_h []
  in
  let to_h = txn_table t.by_txn to_ in
  List.iter
    (fun lrd ->
      Hashtbl.remove from_h lrd.lrd_oid;
      let obj = Hashtbl.find t.objects lrd.lrd_oid in
      obj.granted <- without lrd obj.granted;
      match Hashtbl.find_opt to_h lrd.lrd_oid with
      | Some existing ->
          (* Merge into tj's existing request. *)
          existing.lrd_mode <- Mode.join existing.lrd_mode lrd.lrd_mode;
          resume_suspended obj
      | None ->
          (* Replace the OD's entry with a re-owned LRD. *)
          let lrd' = { lrd with lrd_tid = to_ } in
          obj.granted <- lrd' :: obj.granted;
          Hashtbl.replace to_h lrd.lrd_oid lrd')
    moving;
  (* Withdraw ti's in-flight requests on the delegated objects. *)
  withdraw_pending t from_ covers;
  (* Rewrite PDs (ti, tk, op) to (tj, tk, op) for the delegated objects. *)
  (match Hashtbl.find_opt t.permits_by_grantor from_ with
  | Some l ->
      let moving_pds, staying_pds = List.partition (fun pd -> covers pd.pd_oid) !l in
      l := staying_pds;
      List.iter (fun pd -> pd.pd_grantor <- to_) moving_pds;
      if moving_pds <> [] then begin
        let tl = index_list t.permits_by_grantor to_ in
        tl := moving_pds @ !tl
      end
  | None -> ());
  if Trace.on () then List.iter (fun lrd -> trace_lock Trace.Transfer to_ lrd.lrd_oid lrd.lrd_mode) moving;
  List.map (fun lrd -> lrd.lrd_oid) moving

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)

let holds t tid oid =
  match txn_lrd t.by_txn tid oid with
  | Some lrd -> Some (lrd.lrd_mode, lrd.lrd_status)
  | None -> None

let lock_count t tid =
  match Hashtbl.find_opt t.by_txn tid with None -> 0 | Some h -> Hashtbl.length h

(* ------------------------------------------------------------------ *)
(* The waits-for graph, derived from the pending requests              *)

let has_pending t = Hashtbl.length t.pending_by_txn > 0
let is_pending t tid oid = txn_lrd t.pending_by_txn tid oid <> None

(* The transactions with a pending request, in tid order: the only
   nodes with outgoing waits-for edges. *)
let waiters t = List.sort Tid.compare (Hashtbl.fold (fun tid _ acc -> tid :: acc) t.pending_by_txn [])

(* The holders [waiter] waits for, in tid order: the blockers of each of
   its pending requests. *)
let holders_blocking t waiter =
  match Hashtbl.find_opt t.pending_by_txn waiter with
  | None -> []
  | Some h ->
      Hashtbl.fold
        (fun _ p acc -> List.rev_append (blockers_of (Hashtbl.find t.objects p.lrd_oid) p) acc)
        h []
      |> List.sort_uniq Tid.compare

let waits_for t = List.concat_map (fun w -> List.map (fun h -> (w, h)) (holders_blocking t w)) (waiters t)
let waits_edges t = List.length (waits_for t)

(* Depth-first search for a deadlock cycle, roots and successors in tid
   order, so the cycle found depends only on the lock state and not on
   the history of the hash tables. *)
let find_cycle t =
  Asset_util.Stats.Counter.incr t.cycle_checks;
  if not (has_pending t) then None
  else begin
    let exception Found of Tid.t list in
    let visited = Hashtbl.create 16 in
    (* [path] holds the current DFS stack, most recent first; on
       revisiting a node already on the stack, the stack prefix down to
       that node is the cycle. *)
    let rec dfs path node =
      if List.exists (Tid.equal node) path then begin
        let rec take acc = function
          | [] -> acc
          | x :: rest -> if Tid.equal x node then x :: acc else take (x :: acc) rest
        in
        raise (Found (take [] path))
      end
      else if not (Hashtbl.mem visited node) then begin
        Hashtbl.replace visited node ();
        List.iter (dfs (node :: path)) (holders_blocking t node)
      end
    in
    match List.iter (dfs []) (waiters t) with () -> None | exception Found cycle -> Some cycle
  end

(* Counters reset only here, never on read.  [waits_edges] and [ods]
   are gauges derived from the lock state, not counters. *)
let reset_stats t =
  List.iter Asset_util.Stats.Counter.reset
    [ t.acquires; t.blocks; t.suspensions; t.permit_grants; t.cycle_checks ]

let stats t =
  [
    ("acquires", Asset_util.Stats.Counter.get t.acquires);
    ("blocks", Asset_util.Stats.Counter.get t.blocks);
    ("suspensions", Asset_util.Stats.Counter.get t.suspensions);
    ("permit_grants", Asset_util.Stats.Counter.get t.permit_grants);
    ("waits_edges", waits_edges t);
    ("ods", Hashtbl.length t.objects);
    ("cycle_checks", Asset_util.Stats.Counter.get t.cycle_checks);
  ]

(* Render an object descriptor in the shape of the paper's Figure 1:
   the object id with its granted-lock list, pending-request list and
   permission list. *)
let pp_od t ppf oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> Format.fprintf ppf "OD(%a): <no descriptor>" Oid.pp oid
  | Some obj ->
      let pp_lrd ppf l =
        Format.fprintf ppf "(%a,%a,%a)" Tid.pp l.lrd_tid Mode.pp l.lrd_mode pp_status l.lrd_status
      in
      let pp_pd ppf pd =
        Format.fprintf ppf "(%a,%s,%a)" Tid.pp pd.pd_grantor
          (match pd.pd_grantee with Some g -> Format.asprintf "%a" Tid.pp g | None -> "*")
          Mode.Ops.pp pd.pd_ops
      in
      Format.fprintf ppf "OD(%a)@.  granted: %a@.  pending: %a@.  permits: %a" Oid.pp oid
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_lrd)
        obj.granted
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_lrd)
        obj.pending
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_pd)
        obj.permits

let granted_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> []
  | Some obj -> List.map (fun l -> (l.lrd_tid, l.lrd_mode, l.lrd_status)) obj.granted

let pending_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> []
  | Some obj -> List.map (fun l -> (l.lrd_tid, l.lrd_mode, l.lrd_status)) obj.pending

let permits_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> []
  | Some obj -> List.map (fun pd -> (pd.pd_grantor, pd.pd_grantee, pd.pd_ops)) obj.permits
