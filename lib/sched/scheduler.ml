(* Deterministic cooperative scheduler over OCaml 5 effect handlers.

   EOS runs transactions as OS processes that block by spinning; the
   section 4.2 algorithms are phrased as "t_i blocks and retries later
   starting at step 1".  Here every transaction (and the application's
   main program) is a *fiber*; a blocking primitive parks its fiber on
   the predicate that ends its wait.  This preserves exactly the
   block-and-retry structure while making every schedule reproducible:
   given the same policy (FIFO, or seeded random) the interleaving is
   identical run to run.

   Hot-path structure.  The run queue is a growable circular-buffer
   deque: FIFO push/pop and the random policy's swap-remove are all
   O(1).  A fiber parked with [park] is stamped with the clock value at
   which its predicate was seen false and waits in a queue ordered by
   stamp.  The clock is the registered one ([set_clock], the engine's
   version counter) plus the scheduler's own ticks: one per completed
   fiber and one per stall hook that reports progress.  Once the clock
   passes a waiter's stamp, [wake_ready] moves it to the run queue as a
   re-check, unevaluated; at its turn the scheduler evaluates the
   predicate and resumes the fiber only if it holds, else stamps it
   again without resuming it.  The fiber keeps the run-queue turn a
   resume-and-retry would have had, minus the retries that would block
   again, and a parked fiber costs nothing while the clock stands
   still.  A [wait_until] waiter, which no clock guards, is re-polled
   on every wake sweep.

   Deadlock becomes observable rather than a hang: when no fiber is
   runnable and no parked condition is true, the scheduler calls the
   [on_stall] hook (the engine uses it to pick and abort a deadlock
   victim); if the hook makes no progress, [Deadlock] is raised with the
   parked fibers' reasons. *)

type candidate = { cfid : int; clabel : string }

type policy =
  | Fifo
  | Random_seeded of int
  | Controlled of (candidate array -> int)

type fiber = {
  fid : int;
  label : string;
  mutable resume : unit -> unit;
  mutable recheck : parked; (* queued as a re-check of this wait; [dummy_parked] when not *)
}

and parked = {
  fiber : fiber;
  cond : unit -> bool;
  reason : string;
  mutable stamp : int; (* clock value at which [cond] was last seen false *)
}

exception Deadlock of string list
exception Fiber_failed of string * exn

(* Growable circular-buffer deque.  [dummy] fills vacated slots so the
   GC does not retain popped elements.  Capacity is a power of two, so
   index wrap is a mask. *)
module Ring = struct
  type 'a t = { mutable buf : 'a array; mutable head : int; mutable size : int; dummy : 'a }

  let create dummy = { buf = Array.make 16 dummy; head = 0; size = 0; dummy }
  let size r = r.size
  let is_empty r = r.size = 0

  let grow r =
    let cap = Array.length r.buf in
    let bigger = Array.make (2 * cap) r.dummy in
    for i = 0 to r.size - 1 do
      bigger.(i) <- r.buf.((r.head + i) land (cap - 1))
    done;
    r.buf <- bigger;
    r.head <- 0

  let push_back r x =
    if r.size = Array.length r.buf then grow r;
    r.buf.((r.head + r.size) land (Array.length r.buf - 1)) <- x;
    r.size <- r.size + 1

  let pop_front r =
    if r.size = 0 then invalid_arg "Ring.pop_front: empty";
    let x = r.buf.(r.head) in
    r.buf.(r.head) <- r.dummy;
    r.head <- (r.head + 1) land (Array.length r.buf - 1);
    r.size <- r.size - 1;
    x

  let peek_front r =
    if r.size = 0 then invalid_arg "Ring.peek_front: empty";
    r.buf.(r.head)

  (* [get r i] is the i-th element from the front. *)
  let get r i =
    if i < 0 || i >= r.size then invalid_arg "Ring.get: out of range";
    r.buf.((r.head + i) land (Array.length r.buf - 1))

  (* O(1) removal for the random policy: the back element fills the
     hole, so relative order is not preserved. *)
  let swap_remove r i =
    let x = get r i in
    let cap = Array.length r.buf in
    let pos = (r.head + i) land (cap - 1) in
    let last = (r.head + r.size - 1) land (cap - 1) in
    r.buf.(pos) <- r.buf.(last);
    r.buf.(last) <- r.dummy;
    r.size <- r.size - 1;
    x

  (* Order-preserving removal for the controlled policy: elements after
     [i] shift forward one slot, so the queue order the chooser saw is
     exactly the order the remaining candidates keep.  O(n), but
     controlled runs are bounded scenarios where n is tiny. *)
  let remove_at r i =
    let x = get r i in
    let cap = Array.length r.buf in
    for j = i to r.size - 2 do
      r.buf.((r.head + j) land (cap - 1)) <- r.buf.((r.head + j + 1) land (cap - 1))
    done;
    r.buf.((r.head + r.size - 1) land (cap - 1)) <- r.dummy;
    r.size <- r.size - 1;
    x

  (* Front-to-back fold, newest last. *)
  let fold r ~init ~f =
    let acc = ref init in
    for i = 0 to r.size - 1 do
      acc := f !acc (get r i)
    done;
    !acc
end

let rec dummy_fiber = { fid = -1; label = "<free slot>"; resume = (fun () -> ()); recheck = dummy_parked }
and dummy_parked = { fiber = dummy_fiber; cond = (fun () -> false); reason = "<free slot>"; stamp = 0 }

type t = {
  runnable : fiber Ring.t; (* front = oldest; FIFO pops the front *)
  waiters : parked Ring.t;
      (* [park] waiters in stamp order; [stamp] is nondecreasing front
         to back and never exceeds the current clock value *)
  mutable polled : parked list; (* [wait_until] waiters, newest first, re-polled every sweep *)
  mutable next_fid : int;
  mutable current : fiber option;
  mutable steps : int;
  max_steps : int;
  rng : Asset_util.Rng.t option;
  chooser : (candidate array -> int) option;
  mutable on_stall : unit -> bool;
  mutable on_quiesce : unit -> unit;
  mutable clock : unit -> int;
  mutable ticks : int; (* completed fibers plus stalls resolved: the scheduler's part of the clock *)
}

type _ Effect.t +=
  | Yield : unit Effect.t
  | Wait_until : ((unit -> bool) * string) -> unit Effect.t
  | Park : ((unit -> bool) * string) -> unit Effect.t

let create ?(policy = Fifo) ?(max_steps = 10_000_000) () =
  {
    runnable = Ring.create dummy_fiber;
    waiters = Ring.create dummy_parked;
    polled = [];
    next_fid = 0;
    current = None;
    steps = 0;
    max_steps;
    rng = (match policy with Random_seeded seed -> Some (Asset_util.Rng.create seed) | Fifo | Controlled _ -> None);
    chooser = (match policy with Controlled f -> Some f | Fifo | Random_seeded _ -> None);
    on_stall = (fun () -> false);
    on_quiesce = (fun () -> ());
    clock = (fun () -> 0);
    ticks = 0;
  }

let set_on_stall t f = t.on_stall <- f
let set_on_quiesce t f = t.on_quiesce <- f
let set_clock t f = t.clock <- f
let clock t = t.clock () + t.ticks

let enqueue t fiber = Ring.push_back t.runnable fiber

(* Stamp a waiter with the current clock and queue it.  The clock is
   monotone, so the queue stays in stamp order. *)
let park_at_clock t p =
  p.stamp <- clock t;
  Ring.push_back t.waiters p

(* A fiber queued as a re-check runs only if its condition holds now;
   otherwise it parks again at the current clock, and the turn is not a
   step. *)
let ready t fiber =
  let p = fiber.recheck in
  p == dummy_parked
  || begin
       fiber.recheck <- dummy_parked;
       p.cond () || (park_at_clock t p; false)
     end

(* A queued re-check whose condition is false resumes nothing and has
   no footprint, so it is no choice point: park it again before the
   chooser sees the queue.  One that holds stays a re-check and is
   evaluated again at each later choice point until it runs. *)
let drop_failed_rechecks t =
  let i = ref 0 in
  while !i < Ring.size t.runnable do
    let fiber = Ring.get t.runnable !i in
    let p = fiber.recheck in
    if p == dummy_parked || p.cond () then incr i
    else begin
      ignore (Ring.remove_at t.runnable !i);
      fiber.recheck <- dummy_parked;
      park_at_clock t p
    end
  done

(* Pop the next fiber according to the policy.  FIFO takes the front
   (oldest); random swap-removes a uniformly random element.  The
   random draw indexes from the *newest* end, matching the original
   newest-first list representation, so a given seed keeps selecting
   the same fiber at each decision point. *)
let pop_runnable t =
  if Option.is_some t.chooser then drop_failed_rechecks t;
  let n = Ring.size t.runnable in
  if n = 0 then None
  else
    match t.chooser with
    | Some choose ->
        (* Choice point: the strategy sees every runnable fiber in
           stable (queue) order and picks one.  Invoked even when n = 1
           so a systematic explorer observes every scheduling segment
           boundary, not just the branching ones. *)
        let cands =
          Array.init n (fun i ->
              let f = Ring.get t.runnable i in
              { cfid = f.fid; clabel = f.label })
        in
        let i = choose cands in
        if i < 0 || i >= n then
          invalid_arg
            (Printf.sprintf "Scheduler: controlled choice %d out of range [0, %d)" i n);
        Some (Ring.remove_at t.runnable i)
    | None -> (
        match t.rng with
        | None -> Some (Ring.pop_front t.runnable)
        | Some rng ->
            let i = Asset_util.Rng.int rng n in
            Some (Ring.swap_remove t.runnable (n - 1 - i)))

let current_fid t = match t.current with Some f -> f.fid | None -> -1

let handler t fiber =
  {
    (* A completed fiber advances the clock, so "N fibers done" can be
       a [park]. *)
    Effect.Deep.retc = (fun () -> t.ticks <- t.ticks + 1);
    exnc = (fun e -> raise (Fiber_failed (fiber.label, e)));
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                fiber.resume <- (fun () -> Effect.Deep.continue k ());
                enqueue t fiber)
        | Wait_until (cond, reason) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                fiber.resume <- (fun () -> Effect.Deep.continue k ());
                t.polled <- { fiber; cond; reason; stamp = 0 } :: t.polled)
        | Park (cond, reason) ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                fiber.resume <- (fun () -> Effect.Deep.continue k ());
                park_at_clock t { fiber; cond; reason; stamp = 0 })
        | _ -> None);
  }

let spawn t ~label body =
  let fid = t.next_fid in
  t.next_fid <- fid + 1;
  let fiber = { fid; label; resume = (fun () -> ()); recheck = dummy_parked } in
  fiber.resume <- (fun () -> Effect.Deep.match_with body () (handler t fiber));
  if Asset_obs.Trace.on () then Asset_obs.Trace.emit (Asset_obs.Trace.Sched_spawn { fid; label });
  enqueue t fiber;
  fid

(* Primitives available inside fibers. *)
let yield () = Effect.perform Yield

let wait_until ?(reason = "condition") cond =
  if not (cond ()) then Effect.perform (Wait_until (cond, reason))

let park ?(reason = "condition") cond = if not (cond ()) then Effect.perform (Park (cond, reason))

(* Wake every polled waiter whose condition now holds, in park order,
   and queue every [park] waiter whose stamp the clock has passed as a
   re-check, unevaluated.  Returns true if anything was queued. *)
let wake_ready t =
  let woke = ref false in
  (match t.polled with
  | [] -> ()
  | ps ->
      let ready, still = List.partition (fun p -> p.cond ()) ps in
      t.polled <- still;
      List.iter
        (fun p ->
          woke := true;
          enqueue t p.fiber)
        (List.rev ready));
  let now = clock t in
  while (not (Ring.is_empty t.waiters)) && (Ring.peek_front t.waiters).stamp < now do
    let p = Ring.pop_front t.waiters in
    p.fiber.recheck <- p;
    woke := true;
    enqueue t p.fiber
  done;
  !woke

let no_parked t = t.polled = [] && Ring.is_empty t.waiters

(* Parked reasons, newest park first (waiters back-to-front, then the
   polled list which is already newest first). *)
let parked_entries t =
  Ring.fold t.waiters ~init:t.polled ~f:(fun acc p -> p :: acc)

let deadlock t =
  Deadlock (List.map (fun p -> Printf.sprintf "%s: %s" p.fiber.label p.reason) (parked_entries t))

let run t =
  let rec loop () =
    match pop_runnable t with
    | Some fiber when not (ready t fiber) -> loop ()
    | next -> step next
  and step next =
    t.steps <- t.steps + 1;
    if t.steps > t.max_steps then failwith "Scheduler.run: step budget exhausted (livelock?)";
    match next with
    | Some fiber ->
        t.current <- Some fiber;
        let resume = fiber.resume in
        fiber.resume <- (fun () -> invalid_arg "fiber resumed twice");
        resume ();
        t.current <- None;
        ignore (wake_ready t);
        loop ()
    | None ->
        (* Quiescence point: no fiber is runnable.  The engine uses this
           hook to flush batched group-commit forces. *)
        t.on_quiesce ();
        if no_parked t then () (* all fibers done *)
        else if wake_ready t then loop ()
        else if begin
          (* Stall: nothing runnable, nothing wakeable — the moment the
             deadlock-resolution hook observes. *)
          if Asset_obs.Trace.on () then Asset_obs.Trace.emit Asset_obs.Trace.Sched_stall;
          t.on_stall ()
        end
        then begin
          (* Progress advances the clock: every [park] waiter is
             re-checked. *)
          t.ticks <- t.ticks + 1;
          ignore (wake_ready t);
          if Ring.is_empty t.runnable then raise (deadlock t) else loop ()
        end
        else raise (deadlock t)
  in
  loop ()

(* Convenience: build a scheduler, spawn [main], run to completion. *)
let run_main ?policy ?max_steps main =
  let t = create ?policy ?max_steps () in
  ignore (spawn t ~label:"main" main);
  run t;
  t

let steps t = t.steps
let runnable_count t = Ring.size t.runnable
let parked_count t = List.length t.polled + Ring.size t.waiters
let parked_reasons t = List.map (fun p -> p.reason) (parked_entries t)
