(* Command line of the OLTP-mix benchmark:

     main.exe --workload mix-durable|mix-rmw|mix-2pc --seed N --seconds S --trace 0|1 [--rev REV]

   [--seconds] sets the run's size, not a deadline: it is turned into a
   fixed count of repetitions by a per-workload calibration, so a run
   never stops on the clock.  A traced run makes half as many
   repetitions and runs each twice, untraced and traced.  The last line
   of output is the JSON result; the exit code is 1 when a correctness
   gate failed. *)

module B = Oltp_bench

(* Repetitions per requested second: nine tenths of the untraced
   repetitions (set-up and gates included) that one second holds on a
   2-core x86-64 host, so that a run on a slower host still ends near
   its nominal length. *)
let reps_per_second = function B.Mix_durable -> 2.3 | B.Mix_rmw -> 4.3 | B.Mix_2pc -> 2.7

let usage () =
  prerr_endline
    "usage: main.exe --workload mix-durable|mix-rmw|mix-2pc --seed N --seconds S --trace 0|1 [--rev REV]";
  exit 2

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 10. and trace = ref false in
  let rev = ref "unknown" in
  let rec parse = function
    | "--workload" :: w :: rest ->
        workload := List.assoc_opt w B.workloads;
        if !workload = None then usage ();
        parse rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        parse rest
    | "--seconds" :: s :: rest ->
        seconds := float_of_string s;
        parse rest
    | "--trace" :: t :: rest ->
        trace := t = "1";
        parse rest
    | "--rev" :: r :: rest ->
        rev := r;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let workload = match !workload with Some w -> w | None -> usage () in
  let reps = max 1 (int_of_float (Float.round (!seconds *. reps_per_second workload))) in
  let reps = if !trace then (reps + 1) / 2 else reps in
  let name = fst (List.find (fun (_, w) -> w = workload) B.workloads) in
  Printf.printf "host: nproc=%d ocaml=%s rev=%s\n" (Domain.recommended_domain_count ()) Sys.ocaml_version !rev;
  Printf.printf "run: workload=%s seed=%d reps=%d txns_per_rep=%d sessions=%d trace=%b\n%!" name !seed reps
    B.default_txns
    (if workload = B.Mix_2pc then 1 else B.sessions)
    !trace;
  let run = B.run ~workload ~seed:!seed ~reps ~trace:!trace ~wal_root:".perfbench-wal" () in
  List.iteri
    (fun i r ->
      Printf.printf "rep %d: %.0f txn/s p50 %.1f us p99 %.1f us setup %.3f ms\n" i (B.throughput r)
        (B.percentile 0.50 r.B.lat /. 1e3)
        (B.percentile 0.99 r.B.lat /. 1e3)
        (float_of_int r.B.setup_ns /. 1e6))
    run.B.untraced;
  List.iter
    (fun (name, v) -> Printf.printf "e2e %-24s %.6g\n" name v)
    (B.end_to_end run.B.untraced);
  if !trace then
    List.iter (fun (name, v) -> Printf.printf "layer %-32s %.6g\n" name v) (B.per_layer run);
  (match B.failed_gates run with
  | [] -> print_endline "gates: ok"
  | gs -> Printf.printf "gates: FAILED %s\n" (String.concat " " gs));
  let spec, metrics =
    if !trace then (B.per_layer_spec, B.per_layer run) else (B.end_to_end_spec, B.end_to_end run.B.untraced)
  in
  print_endline (B.result_json run ~spec metrics);
  exit (if B.correct run then 0 else 1)
