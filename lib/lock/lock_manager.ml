(* The lock manager: object descriptors (OD), lock request descriptors
   (LRD) and permit descriptors (PD), implementing the read-lock /
   write-lock algorithm of section 4.2 including permit-driven
   suspension of conflicting granted locks.

   Figure 1 of the paper shows the OD pointing at three lists — granted
   lock requests, pending lock requests, and permissions; this module
   maintains exactly those lists (see [pp_od], which renders the
   figure's structure).  The lists are intrusive doubly-linked lists
   shadowed by per-OD [(tid -> lrd)] hash indexes, so membership tests
   and removals are O(1) while the Figure-1 ordering (newest request at
   the head) is preserved.  LRDs are linked both from their OD and from
   per-transaction tables (granted and pending separately) so that
   delegation, release and pending-cancellation traverse only the
   transaction's own descriptors; PDs are doubly indexed by grantor and
   grantee tid, as the paper prescribes ("doubly hashed on the tid of
   the two transactions involved"), plus a per-OD grantor index feeding
   the transitive-permission search, whose verdicts are memoised per OD
   until the OD's permit list changes.

   The three lists fully determine who waits for whom, so the waits-for
   graph is not stored: [waits_for], [waits_edges] and [find_cycle]
   derive it on demand from the per-transaction pending index, giving
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
  mutable lrd_prev : lrd option; (* intrusive links within the OD list *)
  mutable lrd_next : lrd option;
}

type pd = {
  pd_oid : Oid.t;
  mutable pd_grantor : Tid.t; (* mutable: delegation rewrites the grantor *)
  pd_grantee : Tid.t option; (* None = any transaction *)
  pd_ops : Mode.Ops.t;
}

(* An intrusive doubly-linked LRD list: O(1) push/remove, head = newest
   (the prepend order of the paper's Figure-1 lists). *)
type lrd_list = { mutable head : lrd option; mutable count : int }

let list_create () = { head = None; count = 0 }

let list_push l lrd =
  lrd.lrd_prev <- None;
  lrd.lrd_next <- l.head;
  (match l.head with Some h -> h.lrd_prev <- Some lrd | None -> ());
  l.head <- Some lrd;
  l.count <- l.count + 1

let list_remove l lrd =
  (match lrd.lrd_prev with
  | Some p -> p.lrd_next <- lrd.lrd_next
  | None -> l.head <- lrd.lrd_next);
  (match lrd.lrd_next with Some n -> n.lrd_prev <- lrd.lrd_prev | None -> ());
  lrd.lrd_prev <- None;
  lrd.lrd_next <- None;
  l.count <- l.count - 1

let list_iter f l =
  let rec go = function
    | None -> ()
    | Some x ->
        let next = x.lrd_next in
        f x;
        go next
  in
  go l.head

let list_exists p l =
  let rec go = function
    | None -> false
    | Some x -> p x || go x.lrd_next
  in
  go l.head

let list_elems l =
  let rec go acc = function None -> List.rev acc | Some x -> go (x :: acc) x.lrd_next in
  go [] l.head

type od = {
  od_oid : Oid.t;
  granted : lrd_list; (* granted + suspended requests *)
  granted_idx : (Tid.t, lrd) Hashtbl.t;
  pending : lrd_list; (* blocked + upgrading requests *)
  pending_idx : (Tid.t, lrd) Hashtbl.t;
  mutable permits : pd list;
  pd_by_grantor : (Tid.t, pd list) Hashtbl.t;
      (* per-OD grantor adjacency for the transitive-permission DFS *)
  reach_memo : (Tid.t * Tid.t * Mode.t, bool) Hashtbl.t;
      (* memoised permits_op verdicts; cleared whenever [permits] changes *)
}

type t = {
  objects : (Oid.t, od) Hashtbl.t;
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
      let od =
        {
          od_oid = oid;
          granted = list_create ();
          granted_idx = Hashtbl.create 4;
          pending = list_create ();
          pending_idx = Hashtbl.create 4;
          permits = [];
          pd_by_grantor = Hashtbl.create 4;
          reach_memo = Hashtbl.create 8;
        }
      in
      Hashtbl.replace t.objects oid od;
      od

let txn_table table tid =
  match Hashtbl.find_opt table tid with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 8 in
      Hashtbl.replace table tid h;
      h

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
   ops∩ops').  We search the OD's per-grantor PD index for a chain from
   grantor to grantee every link of which (and hence the intersection)
   includes [op]; a PD with [pd_grantee = None] reaches any
   transaction.  Verdicts are memoised on the OD — the permit list is
   the only input, so the memo is cleared whenever it changes. *)
let permits_op obj ~grantor ~grantee op =
  let key = (grantor, grantee, op) in
  match Hashtbl.find_opt obj.reach_memo key with
  | Some r -> r
  | None ->
      let pds_of tid =
        match Hashtbl.find_opt obj.pd_by_grantor tid with Some l -> l | None -> []
      in
      let rec reachable visited current =
        if Tid.equal current grantee then true
        else if List.exists (Tid.equal current) visited then false
        else
          List.exists
            (fun pd ->
              Mode.Ops.mem op pd.pd_ops
              &&
              match pd.pd_grantee with
              | None -> true (* open permission reaches everyone, incl. grantee *)
              | Some next -> reachable (current :: visited) next)
            (pds_of current)
      in
      let r =
        (* An open permission from the grantor short-circuits. *)
        List.exists (fun pd -> pd.pd_grantee = None && Mode.Ops.mem op pd.pd_ops) (pds_of grantor)
        || reachable [] grantor
      in
      Hashtbl.replace obj.reach_memo key r;
      r

(* The waits-for predicate: does granted/suspended [gl] block waiter
   [p_tid] requesting [p_mode]? *)
let blocks_waiter obj p_tid p_mode op gl =
  (not (Tid.equal gl.lrd_tid p_tid))
  && (gl.lrd_status = Granted || gl.lrd_status = Suspended)
  && Mode.conflicts gl.lrd_mode p_mode
  && not (permits_op obj ~grantor:gl.lrd_tid ~grantee:p_tid op)

let blockers_of obj p =
  let op = Mode.as_op p.lrd_mode in
  let acc = ref [] in
  list_iter
    (fun gl -> if blocks_waiter obj p.lrd_tid p.lrd_mode op gl then acc := gl.lrd_tid :: !acc)
    obj.granted;
  List.sort_uniq Tid.compare !acc

(* Per-OD permit indexing. *)
let od_pd_index obj pd =
  let l = match Hashtbl.find_opt obj.pd_by_grantor pd.pd_grantor with Some l -> l | None -> [] in
  Hashtbl.replace obj.pd_by_grantor pd.pd_grantor (pd :: l);
  Hashtbl.reset obj.reach_memo

let od_pd_unindex obj pd =
  (match Hashtbl.find_opt obj.pd_by_grantor pd.pd_grantor with
  | None -> ()
  | Some l -> (
      match List.filter (fun p -> p != pd) l with
      | [] -> Hashtbl.remove obj.pd_by_grantor pd.pd_grantor
      | l' -> Hashtbl.replace obj.pd_by_grantor pd.pd_grantor l'));
  Hashtbl.reset obj.reach_memo

let add_permit t ~grantor ~grantee ~oid ~ops =
  if Mode.Ops.is_empty ops then ()
  else begin
    let obj = od t oid in
    let pd = { pd_oid = oid; pd_grantor = grantor; pd_grantee = grantee; pd_ops = ops } in
    obj.permits <- pd :: obj.permits;
    od_pd_index obj pd;
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

let find_lrd obj tid = Hashtbl.find_opt obj.granted_idx tid
let find_pending obj tid = Hashtbl.find_opt obj.pending_idx tid

(* Drop a pending request. *)
let remove_pending t obj tid =
  match Hashtbl.find_opt obj.pending_idx tid with
  | None -> ()
  | Some p ->
      list_remove obj.pending p;
      Hashtbl.remove obj.pending_idx tid;
      (match Hashtbl.find_opt t.pending_by_txn tid with
      | Some h ->
          Hashtbl.remove h p.lrd_oid;
          if Hashtbl.length h = 0 then Hashtbl.remove t.pending_by_txn tid
      | None -> ())

(* Step 1b: for every conflicting lock gl in the granted list (granted
   or suspended — a suspended lock still guards its holder's
   uncommitted operations against third parties), check the permit
   list; permitted conflicts suspend gl, unpermitted ones block.
   Returns the blockers, or [] if the way is clear (after
   suspensions). *)
let check_conflicts t obj tid mode =
  let op = Mode.as_op mode in
  let blockers = ref [] in
  let to_suspend = ref [] in
  list_iter
    (fun gl ->
      if (not (Tid.equal gl.lrd_tid tid))
         && (gl.lrd_status = Granted || gl.lrd_status = Suspended)
         && Mode.conflicts gl.lrd_mode mode
      then
        if permits_op obj ~grantor:gl.lrd_tid ~grantee:tid op then begin
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

let acquire t tid oid mode =
  let obj = od t oid in
  match find_lrd obj tid with
  | Some gl when gl.lrd_status <> Suspended && Mode.covers ~held:gl.lrd_mode ~requested:mode ->
      (* Step 1a: an unsuspended covering lock of our own. *)
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
              let lrd =
                {
                  lrd_tid = tid;
                  lrd_oid = oid;
                  lrd_mode = mode;
                  lrd_status = Granted;
                  lrd_prev = None;
                  lrd_next = None;
                }
              in
              list_push obj.granted lrd;
              Hashtbl.replace obj.granted_idx tid lrd;
              Hashtbl.replace (txn_table t.by_txn tid) oid lrd;
              if Trace.on () then trace_lock Trace.Grant tid oid mode;
              Asset_util.Stats.Counter.incr t.acquires);
          Acquired
      | blockers ->
          (* Register a pending request (status upgrading when we already
             hold a weaker lock), so the OD shows the Figure-1 pending
             list and waits-for extraction sees the edge. *)
          (match find_pending obj tid with
          | Some p -> p.lrd_mode <- mode
          | None ->
              let status = if existing <> None then Upgrading else Pending in
              let p =
                {
                  lrd_tid = tid;
                  lrd_oid = oid;
                  lrd_mode = mode;
                  lrd_status = status;
                  lrd_prev = None;
                  lrd_next = None;
                }
              in
              list_push obj.pending p;
              Hashtbl.replace obj.pending_idx tid p;
              Hashtbl.replace (txn_table t.pending_by_txn tid) oid p);
          if Trace.on () then trace_lock Trace.Block tid oid mode;
          Asset_util.Stats.Counter.incr t.blocks;
          Blocked_on blockers)

(* Give up a pending request (e.g. the requester aborted while waiting). *)
let cancel_pending t tid oid =
  match Hashtbl.find_opt t.objects oid with None -> () | Some obj -> remove_pending t obj tid

(* Drop every pending request of [tid]; used when a waiting transaction
   is aborted (e.g. as a deadlock victim).  The per-transaction pending
   index makes this O(own pending requests), not O(objects). *)
let cancel_pending_all t tid =
  match Hashtbl.find_opt t.pending_by_txn tid with
  | None -> ()
  | Some h ->
      let lrds = Hashtbl.fold (fun _ p acc -> p :: acc) h [] in
      List.iter
        (fun p ->
          match Hashtbl.find_opt t.objects p.lrd_oid with
          | Some obj -> remove_pending t obj tid
          | None -> ())
        lrds

(* A suspended lock resumes when no granted lock conflicts with it any
   more (section 4.2 step 2b "remove suspension status" happens through
   re-acquisition; release-time resumption keeps cooperating
   transactions live without forcing a retry loop). *)
let resume_suspended obj =
  list_iter
    (fun sl ->
      if sl.lrd_status = Suspended then begin
        let conflicting =
          list_exists
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

(* Unlink a granted LRD from its OD (guarded by physical equality so a
   stale descriptor is a no-op). *)
let od_remove_granted obj lrd =
  match Hashtbl.find_opt obj.granted_idx lrd.lrd_tid with
  | Some l when l == lrd ->
      list_remove obj.granted lrd;
      Hashtbl.remove obj.granted_idx lrd.lrd_tid
  | _ -> ()

let drop_lrd t lrd =
  if Trace.on () then trace_lock Trace.Release lrd.lrd_tid lrd.lrd_oid lrd.lrd_mode;
  (match Hashtbl.find_opt t.objects lrd.lrd_oid with
  | Some obj ->
      od_remove_granted obj lrd;
      resume_suspended obj
  | None -> ());
  match Hashtbl.find_opt t.by_txn lrd.lrd_tid with
  | Some h -> (
      match Hashtbl.find_opt h lrd.lrd_oid with
      | Some l when l == lrd -> Hashtbl.remove h lrd.lrd_oid
      | _ -> ())
  | None -> ()

(* Release all locks held by a transaction; returns the object ids that
   were locked (the engine uses them to wake waiters). *)
let release_all t tid =
  match Hashtbl.find_opt t.by_txn tid with
  | None -> []
  | Some h ->
      let lrds = Hashtbl.fold (fun _ l acc -> l :: acc) h [] in
      List.iter (drop_lrd t) lrds;
      Hashtbl.remove t.by_txn tid;
      List.map (fun l -> l.lrd_oid) lrds

(* Remove permissions given by and given to [tid] (commit step 6 /
   abort cleanup).  Each PD is removed eagerly from its OD, from the
   per-OD grantor index and from the *other* party's global index
   entry, so no full-table purge is ever needed. *)
let remove_permits t tid =
  let drop_from_od pd =
    match Hashtbl.find_opt t.objects pd.pd_oid with
    | Some obj ->
        if List.memq pd obj.permits then begin
          obj.permits <- List.filter (fun p -> p != pd) obj.permits;
          od_pd_unindex obj pd
        end
    | None -> ()
  in
  (match Hashtbl.find_opt t.permits_by_grantor tid with
  | Some l ->
      List.iter
        (fun pd ->
          drop_from_od pd;
          match pd.pd_grantee with
          | Some g when not (Tid.equal g tid) -> (
              match Hashtbl.find_opt t.permits_by_grantee g with
              | Some el -> el := List.filter (fun p -> p != pd) !el
              | None -> ())
          | _ -> ())
        !l
  | None -> ());
  (match Hashtbl.find_opt t.permits_by_grantee tid with
  | Some l ->
      List.iter
        (fun pd ->
          drop_from_od pd;
          if not (Tid.equal pd.pd_grantor tid) then
            match Hashtbl.find_opt t.permits_by_grantor pd.pd_grantor with
            | Some gl -> gl := List.filter (fun p -> p != pd) !gl
            | None -> ())
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
      match Hashtbl.find_opt t.objects lrd.lrd_oid with
      | None -> ()
      | Some obj -> (
          match Hashtbl.find_opt to_h lrd.lrd_oid with
          | Some existing ->
              (* Merge into tj's existing request. *)
              existing.lrd_mode <- Mode.join existing.lrd_mode lrd.lrd_mode;
              od_remove_granted obj lrd;
              resume_suspended obj
          | None ->
              (* Replace the OD's entry with a re-owned LRD. *)
              od_remove_granted obj lrd;
              let lrd' = { lrd with lrd_tid = to_; lrd_prev = None; lrd_next = None } in
              list_push obj.granted lrd';
              Hashtbl.replace obj.granted_idx to_ lrd';
              Hashtbl.replace to_h lrd.lrd_oid lrd'))
    moving;
  (* Withdraw ti's in-flight requests on the delegated objects. *)
  (match Hashtbl.find_opt t.pending_by_txn from_ with
  | None -> ()
  | Some h ->
      let stale = Hashtbl.fold (fun _ p acc -> if covers p.lrd_oid then p :: acc else acc) h [] in
      List.iter
        (fun p ->
          match Hashtbl.find_opt t.objects p.lrd_oid with
          | Some obj -> remove_pending t obj from_
          | None -> ())
        stale);
  (* Rewrite PDs (ti, tk, op) to (tj, tk, op) for the delegated objects. *)
  (match Hashtbl.find_opt t.permits_by_grantor from_ with
  | Some l ->
      let moving_pds, staying_pds = List.partition (fun pd -> covers pd.pd_oid) !l in
      l := staying_pds;
      List.iter
        (fun pd ->
          (match Hashtbl.find_opt t.objects pd.pd_oid with
          | Some obj ->
              od_pd_unindex obj pd;
              pd.pd_grantor <- to_;
              od_pd_index obj pd
          | None -> pd.pd_grantor <- to_))
        moving_pds;
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
  match Hashtbl.find_opt t.objects oid with
  | None -> None
  | Some obj -> (
      match find_lrd obj tid with
      | Some lrd when lrd.lrd_status = Granted || lrd.lrd_status = Suspended ->
          Some (lrd.lrd_mode, lrd.lrd_status)
      | _ -> None)

let locked_objects t tid =
  match Hashtbl.find_opt t.by_txn tid with
  | None -> []
  | Some h -> Hashtbl.fold (fun oid _ acc -> oid :: acc) h []

let lock_count t tid =
  match Hashtbl.find_opt t.by_txn tid with None -> 0 | Some h -> Hashtbl.length h

(* ------------------------------------------------------------------ *)
(* The waits-for graph, derived from the pending requests              *)

let has_pending t = Hashtbl.length t.pending_by_txn > 0

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
        (fun _ p acc ->
          match Hashtbl.find_opt t.objects p.lrd_oid with
          | Some obj -> List.rev_append (blockers_of obj p) acc
          | None -> acc)
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

(* Counters reset only here, never on read.  [waits_edges] is a gauge
   derived from the lock state, not a counter. *)
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
        (list_elems obj.granted)
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_lrd)
        (list_elems obj.pending)
        (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_pd)
        obj.permits

let granted_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> []
  | Some obj -> List.map (fun l -> (l.lrd_tid, l.lrd_mode, l.lrd_status)) (list_elems obj.granted)

let pending_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> []
  | Some obj -> List.map (fun l -> (l.lrd_tid, l.lrd_mode, l.lrd_status)) (list_elems obj.pending)

let permits_of t oid =
  match Hashtbl.find_opt t.objects oid with
  | None -> []
  | Some obj -> List.map (fun pd -> (pd.pd_grantor, pd.pd_grantee, pd.pd_ops)) obj.permits
