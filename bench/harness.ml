(* What every experiment in main.ml shares: the --smoke flag, timing,
   Bechamel micro-measurement, invariant checks, and the one writer of
   the BENCH_*.json artifacts. *)

module Json = Asset_util.Json

(* --smoke shrinks every knob so a CI run finishes in seconds; the
   tables are then only smoke signals, not measurements. *)
let smoke = ref false

let time_of f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Measure a list of thunks with Bechamel; returns ns/run per case. *)
let bechamel_measure cases =
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map (fun (name, f) -> Test.make ~name (Staged.stage f)) cases
  in
  let grouped = Test.make_grouped ~name:"" ~fmt:"%s%s" tests in
  let quota = if !smoke then 0.02 else 0.25 in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  List.filter_map
    (fun (name, _) ->
      match Hashtbl.find_opt results name with
      | Some est -> (
          match Analyze.OLS.estimates est with
          | Some (ns :: _) -> Some (name, ns)
          | _ -> None)
      | None -> None)
    cases

(* An experiment asserts its invariants where it computes them; [main]
   exits 1 after the selected experiments if any check failed. *)
let failed = ref []

let check name ok =
  Format.printf "%s %s@." name (if ok then "[OK]" else "[FAIL]");
  if not ok then failed := name :: !failed

(* A measured float rounded to [digits] decimals, so artifacts do not
   carry digits the measurement does not have. *)
let fixed digits x =
  let scale = 10. ** float_of_int digits in
  Json.Float (Float.round (x *. scale) /. scale)

(* A JSON array with one object per element of [xs]. *)
let records f xs = Json.List (List.map (fun x -> Json.Obj (f x)) xs)

let git_rev () =
  let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
  let rev = In_channel.input_line ic in
  match (Unix.close_process_in ic, rev) with
  | Unix.WEXITED 0, Some rev -> rev
  | _ -> "unknown"

(* Writes BENCH_<name>.json, or BENCH_<name>_smoke.json under --smoke
   so CI never clobbers the committed full-run numbers. *)
let write_artifact ~name ~experiment members =
  let host =
    Json.Obj
      [
        ("nproc", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("git_rev", Json.Str (git_rev ()));
      ]
  in
  let doc =
    Json.Obj
      (("experiment", Json.Str experiment) :: ("smoke", Json.Bool !smoke) :: ("host", host) :: members)
  in
  let path = Printf.sprintf "BENCH_%s%s.json" name (if !smoke then "_smoke" else "") in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string ~pretty:true doc);
      output_char oc '\n');
  Format.printf "wrote %s@." path
