(* Workflows (section 3.2.3 and the appendix).

   "Workflows are long-lived activities with transaction-like
   components having inter-related dependencies."  The paper sketches a
   future workflow *language* compiled to the primitives and hand-codes
   one activity (the X_conference trip) in the appendix.  This module
   is that language, as a combinator DSL:

     - [Task]          one transactional step, optionally compensable;
     - [Seq]           sequential composition;
     - [Alternatives]  ordered fallback (the Delta/United/American
                       flight preference): first alternative to commit
                       wins, a failed alternative is locally rolled
                       back before the next is tried;
     - [Optional]      a step whose failure does not fail the workflow
                       (the rental car: "If a car cannot be rented, the
                       trip can still proceed");
     - [Race]          parallel alternatives, first to complete wins
                       and the others are aborted (the National/Avis
                       pattern: "Whichever of t5, t6 completes first
                       wins");
     - [Group]         components that commit or abort as one
                       (distributed transaction embedded in a flow).

   When a mandatory step fails, every previously committed compensable
   task is compensated in reverse order, each compensation retried
   until it commits — saga semantics at workflow scope. *)

module E = Asset_core.Engine
module Tid = Asset_util.Id.Tid

type task = { label : string; run : unit -> unit; compensate : (unit -> unit) option }

let task ?compensate label run = { label; run; compensate }

type t =
  | Task of task
  | Seq of t list
  | Alternatives of t list
  | Optional of t
  | Race of task list
  | Group of task list

type event =
  | Committed of string
  | Aborted of string
  | Compensated of string
  | Chose of string
  | Skipped of string

let pp_event ppf = function
  | Committed l -> Format.fprintf ppf "committed %s" l
  | Aborted l -> Format.fprintf ppf "aborted %s" l
  | Compensated l -> Format.fprintf ppf "compensated %s" l
  | Chose l -> Format.fprintf ppf "chose %s" l
  | Skipped l -> Format.fprintf ppf "skipped %s" l

type outcome = { success : bool; events : event list }

(* Compensate committed tasks, newest first, retrying each until it
   commits (the saga rule). *)
let compensate_all db events undo =
  List.iter
    (fun (label, cf) ->
      Saga.compensate db ~label cf;
      events := Compensated label :: !events)
    undo

(* Run one task as an atomic transaction; push its compensation on
   success. *)
let run_task db events undo (t : task) =
  if Atomic.committed db t.run then begin
    events := Committed t.label :: !events;
    (match t.compensate with Some cf -> undo := (t.label, cf) :: !undo | None -> ());
    true
  end
  else begin
    events := Aborted t.label :: !events;
    false
  end

(* Race: begin every contestant, wait until one *completes* (finishes
   executing), abort the rest, commit the winner.  If the first
   completer fails to commit, the next completer is tried. *)
let run_race db events undo (tasks : task list) =
  match tasks with
  | [] -> true
  | _ ->
      let entries = List.map (fun t -> (t, E.initiate db t.run)) tasks in
      if List.exists (fun (_, tid) -> Tid.is_null tid) entries then false
      else begin
        List.iter (fun (_, tid) -> ignore (E.begin_ db tid)) entries;
        let rec arbitrate remaining =
          (* Find a completed contestant; park until one shows up. *)
          let completed, others =
            List.partition
              (fun (_, tid) ->
                match E.status db tid with
                | Asset_core.Status.Completed | Asset_core.Status.Committing -> true
                | _ -> false)
              remaining
          in
          match completed with
          | (winner_task, winner_tid) :: rest -> (
              (* "Whichever completes first wins": abort everyone else. *)
              List.iter (fun (t, tid) ->
                  if not (E.is_terminated db tid) then begin
                    ignore (E.abort db tid);
                    events := Aborted t.label :: !events
                  end)
                (rest @ others);
              if E.commit db winner_tid then begin
                events := Chose winner_task.label :: Committed winner_task.label :: !events;
                (match winner_task.compensate with
                | Some cf -> undo := (winner_task.label, cf) :: !undo
                | None -> ());
                true
              end
              else begin
                events := Aborted winner_task.label :: !events;
                false
              end)
          | [] -> (
              let live =
                List.filter (fun (_, tid) -> not (E.is_terminated db tid)) remaining
              in
              match live with
              | [] -> false (* every contestant aborted *)
              | _ ->
                  let v = E.version db in
                  Asset_sched.Scheduler.wait_until ~reason:"race: awaiting a completer" (fun () ->
                      E.version db > v);
                  arbitrate live)
        in
        arbitrate entries
      end

let run_group db events undo (tasks : task list) =
  match Distributed.run db (List.map (fun t -> t.run) tasks) with
  | `Committed ->
      List.iter
        (fun t ->
          events := Committed t.label :: !events;
          match t.compensate with Some cf -> undo := (t.label, cf) :: !undo | None -> ())
        tasks;
      true
  | `Aborted | `Initiate_failed ->
      List.iter (fun t -> events := Aborted t.label :: !events) tasks;
      false

(* Evaluate a workflow node.  [undo] accumulates compensations of
   committed tasks; a failing node is responsible for rolling back its
   *own* partial work before reporting failure (so Alternatives can try
   the next branch from a clean slate). *)
let rec eval db events undo node =
  match node with
  | Task t -> run_task db events undo t
  | Race tasks -> run_race db events undo tasks
  | Group tasks -> run_group db events undo tasks
  | Seq nodes ->
      let local = ref [] in
      let rec go = function
        | [] ->
            undo := !local @ !undo;
            true
        | n :: rest ->
            if eval db events local n then go rest
            else begin
              compensate_all db events !local;
              false
            end
      in
      go nodes
  | Alternatives nodes ->
      let rec try_next = function
        | [] -> false
        | n :: rest ->
            let local = ref [] in
            if eval db events local n then begin
              undo := !local @ !undo;
              true
            end
            else begin
              (* eval already rolled back its own partial work. *)
              try_next rest
            end
      in
      try_next nodes
  | Optional node ->
      let local = ref [] in
      if eval db events local node then begin
        undo := !local @ !undo;
        true
      end
      else begin
        events := Skipped "optional step" :: !events;
        true
      end

let run db workflow : outcome =
  let events = ref [] in
  let undo = ref [] in
  let success = eval db events undo workflow in
  if not success then compensate_all db events !undo;
  { success; events = List.rev !events }

let committed_labels outcome =
  List.filter_map (function Committed l -> Some l | _ -> None) outcome.events

let compensated_labels outcome =
  List.filter_map (function Compensated l -> Some l | _ -> None) outcome.events
