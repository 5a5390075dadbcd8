(* Runtime: wires an engine to a scheduler and runs an application
   program.

   Every ASSET primitive may block (commit, wait, lock acquisition), so
   application code — including the "main program" that initiates and
   commits top-level transactions — must run inside a fiber.  [run]
   spawns the program as the first fiber, attaches the engine's
   deadlock resolver to the scheduler's stall hook, and drives
   everything to completion. *)

module Sched = Asset_sched.Scheduler

type outcome = { result : (unit, exn) result; steps : int; deadlocked : bool }

let run ?policy ?max_steps db program =
  let s = Sched.create ?policy ?max_steps () in
  Engine.attach_scheduler db s;
  ignore (Sched.spawn s ~label:"main" program);
  let result =
    match Sched.run s with
    | () -> Ok ()
    | exception e -> Error e
  in
  (* Group commit durability: the scheduler flushes pending commit
     forces at quiescence, but a fiber failure can abandon the loop
     mid-step — make sure nothing staged is left unforced.  Not after a
     simulated power loss, though: the machine is dead, and a flush here
     would persist commit records past the crash point (the injected
     crash also disarms its one-shot site, so this force would land).
     A failure of this flush is the run's result unless the run had
     already failed — a failed log fails every later force, so the
     first error is the one to report. *)
  let result =
    match result with
    | Error (Asset_fault.Fault.Crash _ | Sched.Fiber_failed (_, Asset_fault.Fault.Crash _)) -> result
    | _ -> (
        match Engine.flush_pending_commits db with
        | () -> result
        | exception e -> if Result.is_ok result then Error e else result)
  in
  { result; steps = Sched.steps s; deadlocked = (match result with Error (Sched.Deadlock _) -> true | _ -> false) }

(* Run and re-raise any failure: the common path for tests/examples. *)
let run_exn ?policy ?max_steps db program =
  match (run ?policy ?max_steps db program).result with
  | Ok () -> ()
  | Error e -> raise e

(* Build a fresh in-memory database and run [program] against it.
   Returns the engine for post-hoc inspection. *)
let with_fresh_db ?config ?policy ?max_steps ?(objects = 0) ?(init = fun _ -> Asset_storage.Value.of_int 0)
    program =
  let store = Asset_storage.Heap_store.store () in
  if objects > 0 then Asset_storage.Heap_store.populate store ~n:objects ~value:init;
  let db = Engine.create ?config store in
  run_exn ?policy ?max_steps db (fun () -> program db);
  db
