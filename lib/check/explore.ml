(* Systematic schedule exploration: a stateless bounded model checker
   over the cooperative scheduler.

   The scheduler's [Controlled] policy hands every scheduling decision
   to a strategy.  The explorer drives a depth-first enumeration of
   those decisions: each *run* executes the scenario from scratch
   against a fresh in-memory engine, following a scripted prefix of
   choices and extending past it with a deterministic default; the
   observations collected along the way (candidate sets, and the
   conflict footprint of the scheduling segment each choice executed)
   materialize the prefix tree that backtracking walks.

   Partial-order reduction is Godefroid-style sleep sets keyed on the
   lock manager's conflict relation.  The footprint of a segment is the
   set of (object, operation) atoms it touched — data operations and
   lock-table transitions — plus a [Global] atom for engine-level
   events (begin/commit/abort/delegate/permit/dependency), which
   conservatively conflict with everything.  Two segments with
   non-conflicting footprints commute: executing them in either order
   reaches the same engine state (R/R and I/I on the same object are
   compatible by the lock table; operations on different objects touch
   disjoint lock and store state).  WAL appends are deliberately
   neutral: commuting two independent writers permutes LSNs, but no
   checked property inspects LSN order.  When a transition is in a
   node's sleep set, every schedule through it from here is equivalent
   to one already explored through a sibling — it is skipped and
   counted as pruned.

   A failing run (oracle violation, deadlock, fiber crash) yields its
   full choice sequence — byte-replayable via {!replay} — and a
   greedy minimiser shrinks it to a locally-minimal script. *)

module Sched = Asset_sched.Scheduler
module E = Asset_core.Engine
module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle
module Mode = Asset_lock.Mode
module Oid = Asset_util.Id.Oid

exception Nondeterministic of string
(** A revisited choice point presented different candidates than the
    first visit: the system under test is not deterministic under the
    scheduler's choices, and exploration results would be garbage. *)

(* ------------------------------------------------------------------ *)
(* Conflict footprints *)

type atom =
  | Global  (** engine-level event: conflicts with everything *)
  | Data of int * char  (** (object, op/mode tag) *)

let atom_of_event = function
  | Trace.Op { oid; op; _ } -> Some (Data (Oid.to_int oid, op))
  | Trace.Snap_read { oid; _ } -> Some (Data (Oid.to_int oid, 'S'))
  | Trace.Lock { oid; mode; _ } -> Some (Data (Oid.to_int oid, mode))
  | Trace.Wal_append _ | Trace.Wal_force _ | Trace.Ckpt _ | Trace.Wal_retire _ -> None
  | Trace.Initiate _ | Trace.Begin _ | Trace.Commit _ | Trace.Abort _ | Trace.Delegate _
  | Trace.Permit _ | Trace.Dep _ | Trace.Snapshot _ | Trace.Recovery_start
  | Trace.Recovery_done _ | Trace.Sched_spawn _ | Trace.Sched_stall ->
      Some Global

let atoms_of_entries entries =
  let atoms =
    List.fold_left
      (fun acc (e : Trace.entry) ->
        match atom_of_event e.ev with
        | None -> acc
        | Some a -> if List.mem a acc then acc else a :: acc)
      [] entries
  in
  if List.mem Global atoms then [ Global ] else atoms

let atoms_conflict a b =
  match (a, b) with
  | Global, _ | _, Global -> true
  | Data (o1, c1), Data (o2, c2) -> o1 = o2 && Mode.conflicts_ops c1 c2

let fps_conflict f1 f2 = List.exists (fun a -> List.exists (atoms_conflict a) f2) f1

(* A sleeping transition: running fiber [s_fid], whose last observed
   segment had footprint [s_fp]. *)
type seg = { s_fid : int; s_fp : atom list }

let sleeping sleep fid = List.exists (fun s -> s.s_fid = fid) sleep

(* ------------------------------------------------------------------ *)
(* One execution *)

type obs = {
  o_cands : int array;  (** runnable fids at this choice point, stable order *)
  o_choice : int;  (** index chosen *)
  o_fid : int;  (** fid chosen *)
  o_preempt : bool;
  o_sleep : seg list;  (** this node's sleep set (extension nodes only) *)
  mutable o_fp : atom list;  (** footprint of the segment this choice executed *)
}

type run_result = {
  outcome : (unit, exn) result;
  entries : Trace.entry list;
  obs : obs array;  (** one per choice point, oldest first *)
  parked : int;  (** fibers still parked when the run ended *)
  runnable : int;
  preemptions : int;
}

let trace_capacity = 1 lsl 17

(* Execute the scenario once.  [script] pins the first choices (raising
   {!Nondeterministic} on an impossible index when [strict], clamping
   otherwise); past it, the default extension continues the running
   fiber when possible and otherwise takes the first non-sleeping
   candidate — sleep sets seeded from the branch node's [init_sleep]
   and [init_explored] and updated online as segment footprints become
   known. *)
let execute ?(strict = true) ?(por = true) ?preemption_bound ~script ~init_sleep ~init_explored
    (scenario : Scenario.t) =
  let depth = ref 0 in
  let last_fid = ref (-1) in
  let last_seq = ref 0 in
  let cur_sleep = ref [] in
  let obs_rev = ref [] in
  let preemptions = ref 0 in
  let nscript = Array.length script in
  let finalize_segment () =
    (* The segment run by the previous choice is now complete: compute
       its footprint and push the sleep set through it. *)
    match !obs_rev with
    | [] -> ()
    | prev :: _ ->
        let fp =
          atoms_of_entries (List.filter (fun (e : Trace.entry) -> e.seq > !last_seq) (Trace.recent ()))
        in
        prev.o_fp <- fp;
        if por && !depth >= nscript then begin
          let basis =
            if !depth = nscript then
              (* leaving the script: the previous node is the branch
                 node, whose sleep set and already-explored siblings
                 the DFS driver passed in *)
              init_sleep @ init_explored
            else !cur_sleep
          in
          cur_sleep :=
            List.filter (fun s -> s.s_fid <> prev.o_fid && not (fps_conflict s.s_fp fp)) basis
        end
  in
  let choose cands =
    let n = Array.length cands in
    finalize_segment ();
    let sleep = if !depth >= nscript then !cur_sleep else [] in
    let fid_at i = cands.(i).Sched.cfid in
    let choice =
      if !depth < nscript then begin
        let c = script.(!depth) in
        if c >= 0 && c < n then c
        else if strict then
          raise
            (Nondeterministic
               (Printf.sprintf "%s: scripted choice %d of %d at depth %d out of range" scenario.name
                  c n !depth))
        else max 0 (min c (n - 1))
      end
      else begin
        (* Default extension: keep running the same fiber (no added
           preemption, and its successors were already weighed when it
           was first scheduled); otherwise the first candidate not in
           the sleep set; otherwise index 0 (running a sleeping
           transition is redundant but never unsound). *)
        let same = ref (-1) and first_awake = ref (-1) in
        Array.iteri
          (fun i c ->
            if c.Sched.cfid = !last_fid then same := i;
            if !first_awake < 0 && not (sleeping sleep c.Sched.cfid) then first_awake := i)
          cands;
        let bound_hit =
          match preemption_bound with Some b -> !preemptions >= b | None -> false
        in
        if !same >= 0 && (bound_hit || not (sleeping sleep (fid_at !same))) then !same
        else if !first_awake >= 0 then !first_awake
        else if !same >= 0 then !same
        else 0
      end
    in
    let fid = fid_at choice in
    let preempt = !last_fid >= 0 && fid <> !last_fid && Array.exists (fun c -> c.Sched.cfid = !last_fid) cands in
    if preempt then incr preemptions;
    obs_rev :=
      {
        o_cands = Array.map (fun c -> c.Sched.cfid) cands;
        o_choice = choice;
        o_fid = fid;
        o_preempt = preempt;
        o_sleep = sleep;
        o_fp = [];
      }
      :: !obs_rev;
    incr depth;
    last_fid := fid;
    last_seq := Trace.seq ();
    choice
  in
  let sched = Sched.create ~policy:(Sched.Controlled choose) () in
  let store = Asset_storage.Heap_store.store () in
  if scenario.objects > 0 then
    Asset_storage.Heap_store.populate store ~n:scenario.objects
      ~value:(fun _ -> Asset_storage.Value.of_int 0);
  let db = E.create ~config:scenario.config store in
  E.attach_scheduler db sched;
  let (outcome, parked, runnable), entries =
    Trace.with_memory ~capacity:trace_capacity (fun () ->
        ignore (Sched.spawn sched ~label:"main" (fun () -> scenario.main db));
        let r =
          match Sched.run sched with
          | () -> Ok ()
          | exception (Nondeterministic _ as e) -> raise e
          | exception e -> Error e
        in
        (r, Sched.parked_count sched, Sched.runnable_count sched))
  in
  finalize_segment ();
  { outcome; entries; obs = Array.of_list (List.rev !obs_rev); parked; runnable; preemptions = !preemptions }

(* ------------------------------------------------------------------ *)
(* Failure classification *)

type failure_kind =
  | Oracle_violation of { check : string; detail : string }
  | Deadlock of string list
  | Fiber_failure of string
  | Run_error of string

type failure = {
  kind : failure_kind;
  schedule : int list;  (** full choice sequence of the failing run *)
  minimized : int list;  (** locally-minimal script; replay extends it with the default *)
}

let classify (scenario : Scenario.t) (res : run_result) =
  match res.outcome with
  | Error (Sched.Deadlock reasons) -> Some (Deadlock reasons)
  | Error (Sched.Fiber_failed (label, e)) ->
      Some (Fiber_failure (Printf.sprintf "%s: %s" label (Printexc.to_string e)))
  | Error e -> Some (Run_error (Printexc.to_string e))
  | Ok () -> (
      match scenario.checks res.entries with
      | [] -> None
      | { Oracle.check; detail } :: _ -> Some (Oracle_violation { check; detail }))

let same_kind a b =
  match (a, b) with
  | Oracle_violation { check = c1; _ }, Oracle_violation { check = c2; _ } -> String.equal c1 c2
  | Deadlock _, Deadlock _ -> true
  | Fiber_failure _, Fiber_failure _ -> true
  | Run_error _, Run_error _ -> true
  | _ -> false

let pp_failure_kind ppf = function
  | Oracle_violation { check; detail } -> Format.fprintf ppf "oracle %s: %s" check detail
  | Deadlock reasons -> Format.fprintf ppf "deadlock: %s" (String.concat "; " reasons)
  | Fiber_failure s -> Format.fprintf ppf "fiber failure: %s" s
  | Run_error s -> Format.fprintf ppf "run error: %s" s

(* ------------------------------------------------------------------ *)
(* Replay and counterexample encoding *)

let replay ?(por = false) (scenario : Scenario.t) choices =
  execute ~strict:false ~por ~script:(Array.of_list choices) ~init_sleep:[] ~init_explored:[]
    scenario

let choices_to_string choices = String.concat "." (List.map string_of_int choices)

let choices_of_string s =
  if String.length s = 0 then []
  else List.map int_of_string (String.split_on_char '.' s)

(* ------------------------------------------------------------------ *)
(* Schedule minimisation: shrink a failing script to a locally-minimal
   choice sequence reproducing the same failure kind under {!replay}.
   Passes: drop the tail, delete single elements, decrement single
   choices toward the default 0 — iterated to fixpoint under a run
   budget. *)

let minimize (scenario : Scenario.t) kind schedule ~budget =
  let runs = ref 0 in
  let fails s =
    !runs < budget
    && begin
         incr runs;
         match classify scenario (replay scenario s) with
         | Some k -> same_kind kind k
         | None -> false
       end
  in
  let drop_last l = List.filteri (fun i _ -> i < List.length l - 1) l in
  let remove_at i l = List.filteri (fun j _ -> j <> i) l in
  let set_at i v l = List.mapi (fun j x -> if j = i then v else x) l in
  let cur = ref schedule in
  (if fails [] then cur := []);
  let changed = ref true in
  while !changed && !runs < budget do
    changed := false;
    (* tail truncation *)
    let continue_trunc = ref true in
    while !continue_trunc && !cur <> [] do
      let candidate = drop_last !cur in
      if fails candidate then begin
        cur := candidate;
        changed := true
      end
      else continue_trunc := false
    done;
    (* single-element deletion, left to right *)
    let i = ref 0 in
    while !i < List.length !cur do
      let candidate = remove_at !i !cur in
      if fails candidate then begin
        cur := candidate;
        changed := true
      end
      else incr i
    done;
    (* decrement toward the default choice *)
    let i = ref 0 in
    while !i < List.length !cur do
      let v = List.nth !cur !i in
      if v > 0 && fails (set_at !i (v - 1) !cur) then begin
        cur := set_at !i (v - 1) !cur;
        changed := true
      end
      else incr i
    done
  done;
  !cur

(* ------------------------------------------------------------------ *)
(* DFS driver *)

type options = {
  por : bool;  (** sleep-set partial-order reduction *)
  max_schedules : int;  (** execution budget *)
  max_depth : int;  (** deepest choice point that may branch *)
  preemption_bound : int option;
  stop_on_failure : bool;
  minimize : bool;
  minimize_budget : int;
}

let default_options =
  {
    por = true;
    max_schedules = 100_000;
    max_depth = 400;
    preemption_bound = None;
    stop_on_failure = true;
    minimize = true;
    minimize_budget = 500;
  }

type report = {
  scenario : string;
  schedules : int;  (** runs executed *)
  pruned : int;  (** candidates skipped by sleep sets *)
  bounded : int;  (** candidates skipped by the preemption bound *)
  clipped : int;  (** choice points beyond [max_depth], never branched *)
  choice_points : int;
  max_depth_seen : int;
  completed : bool;  (** the bounded tree was fully explored *)
  failure : failure option;
}

(* A materialized choice point on the DFS stack. *)
type node = {
  n_cands : int array;
  n_sleep : seg list;
  n_prev_fid : int;
  n_preempt_before : int;
  mutable n_cur : int;  (** candidate index currently being explored *)
  mutable n_cur_fp : atom list;
  mutable n_explored : seg list;  (** earlier siblings, with observed footprints *)
}

let explore ?(options = default_options) (scenario : Scenario.t) =
  let schedules = ref 0 and pruned = ref 0 and bounded = ref 0 and clipped = ref 0 in
  let choice_points = ref 0 and max_depth_seen = ref 0 in
  let failure = ref None in
  let stack = ref ([] : node list) (* top first; bottom is depth 0 *) in
  let budget_left () = !schedules < options.max_schedules in
  let running = ref true in
  let completed = ref false in
  while !running do
    let script = Array.of_list (List.rev_map (fun n -> n.n_cur) !stack) in
    let init_sleep, init_explored =
      match !stack with [] -> ([], []) | n :: _ -> (n.n_sleep, n.n_explored)
    in
    let res =
      execute ~por:options.por ?preemption_bound:options.preemption_bound ~script ~init_sleep
        ~init_explored scenario
    in
    incr schedules;
    choice_points := !choice_points + Array.length res.obs;
    max_depth_seen := max !max_depth_seen (Array.length res.obs);
    let nscript = Array.length script in
    if Array.length res.obs < nscript then
      raise
        (Nondeterministic
           (Printf.sprintf "%s: run consumed %d of %d scripted choices" scenario.name
              (Array.length res.obs) nscript));
    (* Self-check: revisited choice points must present the same
       candidates as when they were materialized. *)
    List.iteri
      (fun i n ->
        let d = nscript - 1 - i in
        if res.obs.(d).o_cands <> n.n_cands then
          raise
            (Nondeterministic
               (Printf.sprintf "%s: candidate set diverged at depth %d on revisit" scenario.name d)))
      !stack;
    (* The branch node's chosen transition now has an observed
       footprint. *)
    (match !stack with [] -> () | n :: _ -> n.n_cur_fp <- res.obs.(nscript - 1).o_fp);
    (match classify scenario res with
    | Some kind when !failure = None ->
        let schedule = Array.to_list (Array.map (fun o -> o.o_choice) res.obs) in
        let minimized =
          if options.minimize then
            minimize scenario kind schedule ~budget:options.minimize_budget
          else schedule
        in
        failure := Some { kind; schedule; minimized };
        if options.stop_on_failure then running := false
    | _ -> ());
    if !running then begin
      (* Materialize the new choice points this run discovered. *)
      let preempt_before = ref 0 in
      Array.iteri
        (fun d o ->
          if d >= nscript then begin
            if d < options.max_depth then
              stack :=
                {
                  n_cands = o.o_cands;
                  n_sleep = (if options.por then o.o_sleep else []);
                  n_prev_fid = (if d = 0 then -1 else res.obs.(d - 1).o_fid);
                  n_preempt_before = !preempt_before;
                  n_cur = o.o_choice;
                  n_cur_fp = o.o_fp;
                  n_explored = [];
                }
                :: !stack
            else if Array.length o.o_cands > 1 then incr clipped
          end;
          if o.o_preempt then incr preempt_before)
        res.obs;
      if not (budget_left ()) then running := false
      else begin
        (* Backtrack: at the deepest node with an untried, non-sleeping,
           bound-respecting candidate, advance; pop fully-explored
           nodes.  The scan covers every index — the default extension
           may have started a node at a middle candidate (same-fiber
           preference), so lower indices can still be untried. *)
        let rec backtrack () =
          match !stack with
          | [] ->
              running := false;
              completed := true
          | n :: rest -> (
              n.n_explored <-
                n.n_explored @ [ { s_fid = n.n_cands.(n.n_cur); s_fp = n.n_cur_fp } ];
              let len = Array.length n.n_cands in
              let explored fid = List.exists (fun s -> s.s_fid = fid) n.n_explored in
              let bound_blocks fid =
                match options.preemption_bound with
                | Some b ->
                    n.n_prev_fid >= 0 && fid <> n.n_prev_fid
                    && Array.exists (fun c -> c = n.n_prev_fid) n.n_cands
                    && n.n_preempt_before >= b
                | None -> false
              in
              let next = ref (-1) in
              let j = ref 0 in
              while !next < 0 && !j < len do
                let fid = n.n_cands.(!j) in
                if
                  explored fid
                  || (options.por && sleeping n.n_sleep fid)
                  || bound_blocks fid
                then incr j
                else next := !j
              done;
              if !next >= 0 then begin
                n.n_cur <- !next;
                n.n_cur_fp <- []
              end
              else begin
                (* Fully processed: every unexplored candidate was
                   skipped by the sleep set or the preemption bound —
                   account for each exactly once, at pop time. *)
                Array.iter
                  (fun fid ->
                    if not (explored fid) then
                      if options.por && sleeping n.n_sleep fid then incr pruned
                      else if bound_blocks fid then incr bounded)
                  n.n_cands;
                stack := rest;
                backtrack ()
              end)
        in
        backtrack ()
      end
    end
  done;
  {
    scenario = scenario.name;
    schedules = !schedules;
    pruned = !pruned;
    bounded = !bounded;
    clipped = !clipped;
    choice_points = !choice_points;
    max_depth_seen = !max_depth_seen;
    completed = !completed;
    failure = !failure;
  }

(* ------------------------------------------------------------------ *)
(* Mutation self-validation: seeded bugs the explorer + oracle must
   catch, each paired with the bounded scenario designed to expose it.
   Disabled deadlock detection is a real engine option; the other two
   bugs are rewrites of their kill scenario's main program. *)

type mutation = No_deadlock_detection | Skip_remove_permits | Drop_cd_edge

let mutations = [ No_deadlock_detection; Skip_remove_permits; Drop_cd_edge ]

let kill_scenario = function
  | No_deadlock_detection -> Scenario.cross_locks
  | Skip_remove_permits -> Scenario.stale_permit_chain
  | Drop_cd_edge -> Scenario.cd_chain

let mutate m (scenario : Scenario.t) =
  let tag =
    match m with
    | No_deadlock_detection -> "no-deadlock-detection"
    | Skip_remove_permits -> "skip-remove-permits"
    | Drop_cd_edge -> "drop-cd-edge"
  in
  let rewrite main =
    if scenario.Scenario.name <> (kill_scenario m).Scenario.name then
      Fmt.invalid_arg "Explore.mutate: %s is seeded only into %s" tag
        (kill_scenario m).Scenario.name;
    { scenario with Scenario.main }
  in
  let mutated =
    match m with
    | No_deadlock_detection ->
        { scenario with config = { scenario.config with E.deadlock_detection = false } }
    | Skip_remove_permits -> rewrite Scenario.stale_permit_chain_keeping_permits
    | Drop_cd_edge -> rewrite Scenario.cd_chain_dropping_edge
  in
  { mutated with name = scenario.name ^ "+" ^ tag }
