(* Tests of the OLTP-mix benchmark itself: BENCHMARK.json names what the
   harness prints, a small run of every workload prints every metric
   and passes its gates, and same-seed single-engine runs repeat their
   counts exactly. *)

module B = Oltp_bench

let failures = ref 0

let check what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The (name, unit) pairs of BENCHMARK.json's [section] array. *)
let spec_of_json json section =
  let start = Str.search_forward (Str.regexp_string (Printf.sprintf "%S" section)) json 0 in
  let stop = try String.index_from json start ']' with Not_found -> String.length json in
  let re = Str.regexp {|"name": *"\([^"]*\)", *"unit": *"\([^"]*\)"|} in
  let rec go pos acc =
    match Str.search_forward re json pos with
    | p when p < stop -> go (Str.match_end ()) ((Str.matched_group 1 json, Str.matched_group 2 json) :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

let workload_names json =
  let start = Str.search_forward (Str.regexp_string {|"workloads"|}) json 0 in
  let stop = String.index_from json start ']' in
  let re = Str.regexp {|"name": *"\([^"]*\)"|} in
  let rec go pos acc =
    match Str.search_forward re json pos with
    | p when p < stop -> go (Str.match_end ()) (Str.matched_group 1 json :: acc)
    | _ | (exception Not_found) -> List.rev acc
  in
  go start []

let test_spec () =
  let json = read_file "../BENCHMARK.json" in
  check "end_to_end spec matches BENCHMARK.json" (spec_of_json json "end_to_end" = B.end_to_end_spec);
  check "per_layer spec matches BENCHMARK.json" (spec_of_json json "per_layer" = B.per_layer_spec);
  check "workloads match BENCHMARK.json" (workload_names json = List.map fst B.workloads)

let same_names spec metrics = List.map fst spec = List.map fst metrics

let test_small_runs () =
  List.iter
    (fun (name, workload) ->
      let run = B.run ~txns:60 ~workload ~seed:3 ~reps:1 ~trace:true ~wal_root:"wal-test" () in
      check (name ^ ": gates") (B.correct run);
      check (name ^ ": nothing failed") (B.failed run = 0);
      let e2e = B.end_to_end run.B.untraced in
      check (name ^ ": end-to-end names") (same_names B.end_to_end_spec e2e);
      check (name ^ ": end-to-end values") (List.for_all (fun (_, v) -> Float.is_finite v && v > 0.) e2e);
      let layers = B.per_layer run in
      check (name ^ ": per-layer names") (same_names B.per_layer_spec layers);
      check (name ^ ": per-layer values") (List.for_all (fun (_, v) -> Float.is_finite v) layers);
      let json = B.result_json run ~spec:B.per_layer_spec layers in
      List.iter
        (fun (m, u) ->
          check
            (Printf.sprintf "%s: %s printed with unit %s" name m u)
            (Str.string_match (Str.regexp (Printf.sprintf {|.*"%s": {"value": [-0-9.e+]+, "unit": "%s"}|} (Str.quote m) (Str.quote u))) json 0))
        B.per_layer_spec)
    B.workloads

let test_same_seed_counts () =
  List.iter
    (fun workload ->
      let go () =
        let run = B.run ~txns:200 ~workload ~seed:11 ~reps:2 ~trace:true ~wal_root:"wal-test" () in
        (List.map B.counts run.B.untraced, List.map B.counts run.B.traced)
      in
      let u1, t1 = go () and u2, _ = go () in
      check "same seed, same counts" (u1 = u2);
      check "tracing leaves counts unchanged" (u1 = t1);
      check "the mix contends" (List.for_all (fun c -> List.assoc "lock.blocks" c > 0) u1))
    [ B.Mix_durable; B.Mix_rmw ]

let () =
  test_spec ();
  test_small_runs ();
  test_same_seed_counts ();
  if !failures > 0 then exit 1 else print_endline "perfbench tests: ok"
