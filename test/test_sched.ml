(* Tests for the cooperative scheduler: fiber spawning, yield
   interleaving, wait conditions, deadlock detection, the stall hook,
   policy determinism and failure propagation. *)

module S = Asset_sched.Scheduler

let run_with_log policy f =
  let events = ref [] in
  let push e = events := e :: !events in
  let s = S.create ~policy () in
  f s push;
  S.run s;
  List.rev !events

let test_single_fiber_runs () =
  let events = run_with_log S.Fifo (fun s push -> ignore (S.spawn s ~label:"a" (fun () -> push "ran"))) in
  Alcotest.(check (list string)) "ran" [ "ran" ] events

let test_fifo_round_robin () =
  let events =
    run_with_log S.Fifo (fun s push ->
        ignore
          (S.spawn s ~label:"a" (fun () ->
               push "a1";
               S.yield ();
               push "a2"));
        ignore
          (S.spawn s ~label:"b" (fun () ->
               push "b1";
               S.yield ();
               push "b2")))
  in
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ] events

let test_spawn_from_fiber () =
  let events =
    run_with_log S.Fifo (fun s push ->
        ignore
          (S.spawn s ~label:"parent" (fun () ->
               push "parent";
               ignore (S.spawn s ~label:"child" (fun () -> push "child")))))
  in
  Alcotest.(check (list string)) "child ran after parent" [ "parent"; "child" ] events

let test_wait_until_parks_and_wakes () =
  let flag = ref false in
  let events =
    run_with_log S.Fifo (fun s push ->
        ignore
          (S.spawn s ~label:"waiter" (fun () ->
               S.wait_until ~reason:"flag" (fun () -> !flag);
               push "woke"));
        ignore
          (S.spawn s ~label:"setter" (fun () ->
               push "setting";
               flag := true)))
  in
  Alcotest.(check (list string)) "order" [ "setting"; "woke" ] events

let test_wait_until_true_does_not_park () =
  let events =
    run_with_log S.Fifo (fun s push ->
        ignore
          (S.spawn s ~label:"a" (fun () ->
               S.wait_until (fun () -> true);
               push "immediate")))
  in
  Alcotest.(check (list string)) "no park" [ "immediate" ] events

let test_deadlock_detected () =
  let s = S.create () in
  ignore (S.spawn s ~label:"stuck" (fun () -> S.wait_until ~reason:"never" (fun () -> false)));
  match S.run s with
  | exception S.Deadlock reasons ->
      Alcotest.(check (list string)) "reason" [ "stuck: never" ] reasons
  | () -> Alcotest.fail "expected deadlock"

let test_on_stall_can_resolve () =
  let rescued = ref false in
  let s = S.create () in
  S.set_on_stall s (fun () ->
      rescued := true;
      true);
  ignore (S.spawn s ~label:"waiter" (fun () -> S.wait_until ~reason:"rescue" (fun () -> !rescued)));
  S.run s;
  Alcotest.(check bool) "stall hook ran" true !rescued

let test_on_stall_without_progress_deadlocks () =
  let s = S.create () in
  S.set_on_stall s (fun () -> false);
  ignore (S.spawn s ~label:"w" (fun () -> S.wait_until ~reason:"never" (fun () -> false)));
  match S.run s with
  | exception S.Deadlock _ -> ()
  | () -> Alcotest.fail "expected deadlock"

let test_fiber_failure_propagates () =
  let s = S.create () in
  ignore (S.spawn s ~label:"bad" (fun () -> failwith "kaboom"));
  match S.run s with
  | exception S.Fiber_failed (label, Failure msg) when label = "bad" && msg = "kaboom" -> ()
  | exception e -> Alcotest.failf "wrong exception: %s" (Printexc.to_string e)
  | () -> Alcotest.fail "expected failure"

let test_step_budget () =
  let s = S.create ~max_steps:10 () in
  ignore
    (S.spawn s ~label:"spinner" (fun () ->
         while true do
           S.yield ()
         done));
  match S.run s with
  | exception Failure msg ->
      Alcotest.(check bool) "mentions livelock" true
        (String.length msg > 0 && String.exists (fun c -> c = 'l') msg)
  | () -> Alcotest.fail "expected step budget exhaustion"

let interleaving policy =
  let order = ref [] in
  let s = S.create ~policy () in
  for i = 1 to 5 do
    ignore
      (S.spawn s ~label:(string_of_int i) (fun () ->
           order := (i, 1) :: !order;
           S.yield ();
           order := (i, 2) :: !order))
  done;
  S.run s;
  List.rev !order

let test_fifo_deterministic () =
  Alcotest.(check bool) "same schedule twice" true (interleaving S.Fifo = interleaving S.Fifo)

let test_random_seeded_reproducible () =
  let a = interleaving (S.Random_seeded 99) in
  let b = interleaving (S.Random_seeded 99) in
  Alcotest.(check bool) "same seed, same schedule" true (a = b)

let test_random_seeds_vary () =
  (* Across many seeds at least one schedule must differ from FIFO. *)
  let fifo = interleaving S.Fifo in
  let differs =
    List.exists (fun seed -> interleaving (S.Random_seeded seed) <> fifo) [ 1; 2; 3; 4; 5; 6; 7 ]
  in
  Alcotest.(check bool) "some seed deviates from FIFO" true differs

(* ------------------------------------------------------------------ *)
(* Golden traces: the deque/version-keyed overhaul must not change a
   single scheduled event.  The digests were captured from the
   pre-overhaul list-based scheduler on the same programs. *)

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* Each fiber logs its own steps with its fid, so the log is the
   schedule: which fiber ran which segment, in what order. *)
let golden_program s log =
  let flag = ref false in
  let step what = log := Printf.sprintf "%d|%s" (S.current_fid s) what :: !log in
  ignore
    (S.spawn s ~label:"a" (fun () ->
         step "a start";
         S.yield ();
         step "a waits";
         S.wait_until ~reason:"flag" (fun () -> !flag);
         step "a woke";
         S.yield ();
         step "a done"));
  ignore
    (S.spawn s ~label:"b" (fun () ->
         step "b start";
         S.yield ();
         ignore
           (S.spawn s ~label:"c" (fun () ->
                step "c start";
                S.yield ();
                step "c done"));
         step "b sets flag";
         flag := true;
         S.yield ();
         step "b done"))

let test_golden_fifo_trace () =
  let s = S.create ~policy:S.Fifo () in
  let log = ref [] in
  golden_program s log;
  S.run s;
  let tr = List.rev !log in
  Alcotest.(check int) "step count" 9 (List.length tr);
  Alcotest.(check string) "same schedule as the pre-deque scheduler"
    "a4d682bd3b56469a52a9ee9bf57c31f5" (digest tr)

let test_golden_engine_trace () =
  (* A full engine workload (locks, parks, commits) under FIFO.  Two
     digests: the outcome (commit/abort order and final balances) and
     the full event schedule.  A change that only removes useless
     retries moves the second and must leave the first. *)
  let module E = Asset_core.Engine in
  let module Bank = Asset_workload.Bank in
  let module Trace = Asset_obs.Trace in
  let store = Asset_storage.Heap_store.store () in
  Bank.setup store ~accounts:4 ~balance:100;
  let db = E.create store in
  let s = S.create ~policy:S.Fifo () in
  E.attach_scheduler db s;
  ignore
    (S.spawn s ~label:"main" (fun () ->
         ignore (Bank.run_transfers ~seed:5 db ~accounts:4 ~n_txns:8)));
  let (), entries = Trace.with_memory (fun () -> S.run s) in
  let outcomes =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.ev with
        | Trace.Commit _ | Trace.Abort _ -> Some (Format.asprintf "%a" Trace.pp_event e.ev)
        | _ -> None)
      entries
  in
  let balances =
    List.init 4 (fun i ->
        match Asset_storage.Store.read (E.store db) (Bank.account (i + 1)) with
        | Some v -> string_of_int (Asset_storage.Value.to_int v)
        | None -> "-")
  in
  Alcotest.(check string) "same commit/abort order and balances"
    "e9437c2f0d8bb030def09c4b20b4612a" (digest (outcomes @ balances));
  Alcotest.(check int) "event count" 186 (List.length entries);
  Alcotest.(check string) "same engine schedule"
    "6f1c4c44b04c6d8bd0b8912e7e08572c" (digest (List.map Trace.entry_to_json entries))

(* ------------------------------------------------------------------ *)
(* Version-keyed wait queues                                           *)

let test_watched_wait_not_repolled () =
  (* While the clock stands still, a watched condition must not be
     re-evaluated on every step — that is the whole point. *)
  let s = S.create () in
  let ver = ref 0 in
  S.set_clock s (fun () -> !ver);
  let evals = ref 0 in
  ignore
    (S.spawn s ~label:"waiter" (fun () ->
         let v = !ver in
         S.wait_until ~reason:"versioned" ~watch:v (fun () ->
             incr evals;
             !ver > v)));
  ignore
    (S.spawn s ~label:"worker" (fun () ->
         for _ = 1 to 100 do
           S.yield ()
         done;
         incr ver));
  S.run s;
  Alcotest.(check bool) "woke" true (S.parked_count s = 0);
  (* Pre-check + park-time check + the post-bump wakeup: a handful of
     evaluations, not one per scheduler step. *)
  Alcotest.(check bool) (Printf.sprintf "few evaluations (%d)" !evals) true (!evals <= 5)

let test_unwatched_wait_still_polled () =
  (* No watch: the condition is re-polled even though the clock never
     moves — the legacy contract for conditions the version counter
     does not guard. *)
  let s = S.create () in
  S.set_clock s (fun () -> 0);
  let flag = ref false in
  let woke = ref false in
  ignore
    (S.spawn s ~label:"waiter" (fun () ->
         S.wait_until ~reason:"plain" (fun () -> !flag);
         woke := true));
  ignore (S.spawn s ~label:"setter" (fun () -> flag := true));
  S.run s;
  Alcotest.(check bool) "woke without a version bump" true !woke

let test_stale_watch_already_true_wakes () =
  (* The caller's snapshot is stale: the condition became true before
     the park.  The fiber must still wake (the scheduler re-checks the
     condition at park time). *)
  let s = S.create () in
  let ver = ref 10 in
  S.set_clock s (fun () -> !ver);
  let woke = ref false in
  ignore
    (S.spawn s ~label:"stale" (fun () ->
         (* Force an actual park by racing: the condition flips while
            the fiber is between reading the snapshot and parking —
            modelled by a condition that is true from the start but a
            stale watch value from long ago. *)
         S.wait_until ~reason:"stale" ~watch:0
           (let first = ref true in
            fun () ->
              if !first then begin
                first := false;
                false (* pre-check: pretend not ready, forcing the park *)
              end
              else true);
         woke := true));
  S.run s;
  Alcotest.(check bool) "stale-watched fiber woke" true !woke

let test_watched_wakes_on_version_advance () =
  let s = S.create () in
  let ver = ref 0 in
  S.set_clock s (fun () -> !ver);
  let order = ref [] in
  for i = 1 to 3 do
    ignore
      (S.spawn s ~label:(Printf.sprintf "w%d" i) (fun () ->
           let v = !ver in
           S.wait_until ~reason:"versioned" ~watch:v (fun () -> !ver > v);
           order := i :: !order))
  done;
  ignore (S.spawn s ~label:"bump" (fun () -> incr ver));
  S.run s;
  Alcotest.(check (list int)) "all woke in park order" [ 1; 2; 3 ] (List.rev !order)

(* Three ways for fibers A and B to wait for [flag] under a version
   clock: a loop that resumes and retries on every advance, one
   [retry_until], and one watched [wait_until].  A parks first; D bumps
   the clock before B parks, idles a turn, then sets the flag and bumps
   again.  Returns the order A and B got through, and the steps run. *)
let two_waiters wait =
  let s = S.create () in
  let ver = ref 0 and flag = ref false and order = ref [] in
  S.set_clock s (fun () -> !ver);
  let waiter name = ignore (S.spawn s ~label:name (fun () -> wait ver flag; order := name :: !order)) in
  waiter "A";
  ignore
    (S.spawn s ~label:"D" (fun () ->
         incr ver;
         S.yield ();
         S.yield ();
         flag := true;
         incr ver));
  waiter "B";
  S.run s;
  (List.rev !order, S.steps s)

let resume_and_retry ver flag =
  let rec loop () =
    if not !flag then begin
      let v = !ver in
      S.wait_until ~reason:"retry" ~watch:v (fun () -> !ver > v);
      loop ()
    end
  in
  loop ()

let test_retry_keeps_turn () =
  (* A's re-check runs at the turn its retry had, after B parked, so B
     now queues ahead of A — as with the retry loop.  A watched wait is
     re-evaluated in the wake sweep and keeps A ahead. *)
  let retry_order, retry_steps = two_waiters resume_and_retry in
  let order, steps =
    two_waiters (fun ver flag -> S.retry_until ~reason:"flag" ~watch:!ver (fun () -> !flag))
  in
  let watched_order, _ =
    two_waiters (fun ver flag -> S.wait_until ~reason:"flag" ~watch:!ver (fun () -> !flag))
  in
  Alcotest.(check (list string)) "retry loop order" [ "B"; "A" ] retry_order;
  Alcotest.(check (list string)) "retry_until keeps it" retry_order order;
  Alcotest.(check (list string)) "watched wait differs" [ "A"; "B" ] watched_order;
  (* The retry loop resumed A once for nothing; that turn is no step. *)
  Alcotest.(check int) "one resume fewer" (retry_steps - 1) steps

(* ------------------------------------------------------------------ *)
(* Deque ordering                                                      *)

let test_fifo_deque_multi_round () =
  (* 5 fibers x 3 yields: FIFO must stay perfectly round-robin through
     ring-buffer growth and wrap-around. *)
  let s = S.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore
      (S.spawn s ~label:(string_of_int i) (fun () ->
           for round = 1 to 3 do
             order := (i, round) :: !order;
             S.yield ()
           done))
  done;
  S.run s;
  let expected =
    List.concat_map (fun round -> List.map (fun i -> (i, round)) [ 1; 2; 3; 4; 5 ]) [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "round robin preserved" true (List.rev !order = expected)

let test_random_with_parks_completes () =
  (* Random policy (swap-remove path) combined with watched parks:
     every fiber still completes and the same seed reproduces the
     schedule. *)
  let run seed =
    let order = ref [] in
    let s = S.create ~policy:(S.Random_seeded seed) () in
    let ver = ref 0 in
    S.set_clock s (fun () -> !ver);
    for i = 1 to 8 do
      ignore
        (S.spawn s ~label:(string_of_int i) (fun () ->
             S.yield ();
             let v = !ver in
             S.wait_until ~reason:"gate" ~watch:v (fun () -> !ver >= 1);
             order := i :: !order))
    done;
    ignore
      (S.spawn s ~label:"release" (fun () ->
           S.yield ();
           incr ver));
    S.run s;
    !order
  in
  Alcotest.(check int) "all completed" 8 (List.length (run 42));
  Alcotest.(check bool) "same seed, same schedule" true (run 42 = run 42)

let test_current_fid () =
  let seen = ref [] in
  let s = S.create () in
  let fid_a = S.spawn s ~label:"a" (fun () -> ()) in
  ignore fid_a;
  ignore
    (S.spawn s ~label:"b" (fun () ->
         seen := S.current_fid s :: !seen;
         S.yield ();
         seen := S.current_fid s :: !seen));
  S.run s;
  match !seen with
  | [ x; y ] -> Alcotest.(check int) "stable across yields" x y
  | _ -> Alcotest.fail "expected two observations"

let test_counts () =
  let s = S.create () in
  ignore (S.spawn s ~label:"a" (fun () -> ()));
  Alcotest.(check int) "runnable" 1 (S.runnable_count s);
  Alcotest.(check int) "parked" 0 (S.parked_count s);
  S.run s;
  Alcotest.(check bool) "steps counted" true (S.steps s >= 1)

(* Property: for any program built from yields, FIFO scheduling runs
   every fiber to completion and executes each step exactly once. *)
let prop_all_fibers_complete =
  QCheck2.Test.make ~name:"all fibers complete under fifo" ~count:200
    QCheck2.Gen.(list_size (int_range 1 10) (int_range 0 5))
    (fun yield_counts ->
      let s = S.create () in
      let completed = ref 0 in
      List.iteri
        (fun i yields ->
          ignore
            (S.spawn s ~label:(string_of_int i) (fun () ->
                 for _ = 1 to yields do
                   S.yield ()
                 done;
                 incr completed)))
        yield_counts;
      S.run s;
      !completed = List.length yield_counts)

let () =
  Alcotest.run "asset_sched"
    [
      ( "basics",
        [
          Alcotest.test_case "single fiber" `Quick test_single_fiber_runs;
          Alcotest.test_case "fifo round robin" `Quick test_fifo_round_robin;
          Alcotest.test_case "spawn from fiber" `Quick test_spawn_from_fiber;
          Alcotest.test_case "current fid" `Quick test_current_fid;
          Alcotest.test_case "counts" `Quick test_counts;
          QCheck_alcotest.to_alcotest prop_all_fibers_complete;
        ] );
      ( "blocking",
        [
          Alcotest.test_case "wait_until parks and wakes" `Quick test_wait_until_parks_and_wakes;
          Alcotest.test_case "true condition doesn't park" `Quick test_wait_until_true_does_not_park;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "stall hook resolves" `Quick test_on_stall_can_resolve;
          Alcotest.test_case "stall without progress deadlocks" `Quick
            test_on_stall_without_progress_deadlocks;
          Alcotest.test_case "step budget" `Quick test_step_budget;
        ] );
      ( "failures",
        [ Alcotest.test_case "fiber failure propagates" `Quick test_fiber_failure_propagates ] );
      ( "policies",
        [
          Alcotest.test_case "fifo deterministic" `Quick test_fifo_deterministic;
          Alcotest.test_case "random seeded reproducible" `Quick test_random_seeded_reproducible;
          Alcotest.test_case "random seeds vary" `Quick test_random_seeds_vary;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "golden fifo trace" `Quick test_golden_fifo_trace;
          Alcotest.test_case "golden engine trace" `Quick test_golden_engine_trace;
          Alcotest.test_case "watched wait not re-polled" `Quick test_watched_wait_not_repolled;
          Alcotest.test_case "unwatched wait still polled" `Quick test_unwatched_wait_still_polled;
          Alcotest.test_case "retry keeps its turn" `Quick test_retry_keeps_turn;
          Alcotest.test_case "stale watch still wakes" `Quick test_stale_watch_already_true_wakes;
          Alcotest.test_case "watched wake on version advance" `Quick
            test_watched_wakes_on_version_advance;
          Alcotest.test_case "fifo deque multi-round" `Quick test_fifo_deque_multi_round;
          Alcotest.test_case "random with parks completes" `Quick test_random_with_parks_completes;
        ] );
    ]
