(* Sanity checker for the committed BENCH_*.json artifacts.

   Each benchmark experiment that tracks a perf or state-space
   trajectory emits a machine-readable JSON file; CI and reviewers
   diff them across PRs.  A malformed or silently-truncated artifact
   defeats that, so this tool parses every BENCH_*.json in the
   repository root and checks the schema: the experiment tag, and the
   presence and types of the metric keys each experiment promises.

   Usage: bench_sanity [dir]   (default: current directory)
   Exit 0 when every file is well-formed, 1 otherwise. *)

(* ------------------------------------------------------------------ *)
(* A minimal JSON value + recursive-descent parser: the artifacts use
   numbers (int and float), strings, bools, null, arrays, objects. *)

type json =
  | Num of float
  | Str of string
  | Bool of bool
  | Null
  | Arr of json list
  | Obj of (string * json) list

exception Bad of string

let parse (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let expect c =
    skip_ws ();
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    if !pos + String.length lit <= n && String.sub s !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else fail ("expected " ^ lit)
  in
  let string_ () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "bad escape";
            (match s.[!pos] with
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'u' ->
                (* artifacts only escape control chars; keep the code point raw *)
                if !pos + 4 >= n then fail "bad \\u escape";
                pos := !pos + 4
            | c -> Buffer.add_char b c);
            incr pos;
            loop ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            loop ()
    in
    loop ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip_ws ();
    if !pos >= n then fail "unexpected end"
    else
      match s.[!pos] with
      | '{' ->
          incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = '}' then begin
            incr pos;
            Obj []
          end
          else
            let rec fields acc =
              let k = string_ () in
              expect ':';
              let v = value () in
              skip_ws ();
              if !pos < n && s.[!pos] = ',' then begin
                incr pos;
                skip_ws ();
                fields ((k, v) :: acc)
              end
              else begin
                expect '}';
                Obj (List.rev ((k, v) :: acc))
              end
            in
            fields []
      | '[' ->
          incr pos;
          skip_ws ();
          if !pos < n && s.[!pos] = ']' then begin
            incr pos;
            Arr []
          end
          else
            let rec elems acc =
              let v = value () in
              skip_ws ();
              if !pos < n && s.[!pos] = ',' then begin
                incr pos;
                elems (v :: acc)
              end
              else begin
                expect ']';
                Arr (List.rev (v :: acc))
              end
            in
            elems []
      | '"' -> Str (string_ ())
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | 'n' -> literal "null" Null
      | _ -> number ()
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Schema checks. *)

let member k = function
  | Obj fields -> List.assoc_opt k fields
  | _ -> None

type field = Fnum | Fstr | Fbool | Fnum_or_null

let type_ok f v =
  match (f, v) with
  | Fnum, Num _ | Fstr, Str _ | Fbool, Bool _ -> true
  | Fnum_or_null, (Num _ | Null) -> true
  | _ -> false

let field_name = function
  | Fnum -> "number"
  | Fstr -> "string"
  | Fbool -> "bool"
  | Fnum_or_null -> "number|null"

(* Per-experiment schema: each top-level member is an array of
   records, a single record, or a curve section — a record that also
   carries a non-empty "points" array of records (the E23 shape).
   Every schema also implies the top-level "experiment" and "smoke"
   tags checked for all files. *)
type member_shape =
  | Arr_of of (string * field) list
  | One_of of (string * field) list
  | Curve_of of (string * field) list * (string * field) list

let schemas =
  [
    ( "E17-hotpath",
      [
        ( "scheduler_step",
          Arr_of
            [ ("parked", Fnum); ("mode", Fstr); ("ns_per_step", Fnum); ("steps", Fnum) ] );
        ( "commit_throughput",
          Arr_of
            [
              ("txns", Fnum);
              ("sessions", Fnum);
              ("seconds", Fnum);
              ("txn_per_s", Fnum);
              ("log_forces", Fnum);
              ("committed", Fnum);
              ("group_commits", Fnum);
            ] );
      ] );
    ( "E18-lockpath",
      [
        ( "acquire_release",
          Arr_of [ ("objects", Fnum); ("holders", Fnum); ("ns_per_op", Fnum) ] );
        ( "deadlock_check",
          Arr_of
            [
              ("txns", Fnum); ("pending", Fnum); ("incremental_us", Fnum); ("rebuild_us", Fnum);
            ] );
        ( "workload",
          Arr_of
            [
              ("name", Fstr);
              ("committed", Fnum);
              ("victims", Fnum);
              ("lock_waits", Fnum);
              ("txn_per_s", Fnum);
            ] );
      ] );
    ( "E19-faults",
      [
        ( "boundary_sweep",
          Arr_of
            [
              ("seed", Fnum);
              ("boundaries", Fnum);
              ("crashes", Fnum);
              ("violations", Fnum);
              ("recovery_total_s", Fnum);
            ] );
        ( "random_schedules",
          One_of
            [
              ("runs", Fnum); ("crashes", Fnum); ("violations", Fnum); ("recovery_total_s", Fnum);
            ] );
        ( "retry",
          Arr_of
            [
              ("fault_rate", Fnum);
              ("txns", Fnum);
              ("committed", Fnum);
              ("retries", Fnum);
              ("gave_up", Fnum);
              ("seconds", Fnum);
              ("conserved", Fbool);
            ] );
        ( "lock_timeout",
          One_of
            [
              ("txns", Fnum);
              ("timeout_steps", Fnum);
              ("committed", Fnum);
              ("lock_timeouts", Fnum);
              ("retries", Fnum);
              ("gave_up", Fnum);
              ("seconds", Fnum);
            ] );
      ] );
    ( "E20-obs",
      [
        ("emit_site", Arr_of [ ("recorder", Fstr); ("ns_per_site", Fnum) ]);
        ( "workload",
          Arr_of
            [
              ("recorder", Fstr);
              ("txns", Fnum);
              ("writes_per_txn", Fnum);
              ("us_per_txn", Fnum);
              ("events", Fnum);
              ("overhead_pct", Fnum);
            ] );
      ] );
    ( "E21-check",
      [
        ( "scenarios",
          Arr_of
            [
              ("scenario", Fstr);
              ("schedules", Fnum);
              ("pruned", Fnum);
              ("choice_points", Fnum);
              ("completed", Fbool);
              ("naive_schedules", Fnum_or_null);
              ("seconds", Fnum);
            ] );
        ( "mutations",
          Arr_of
            [
              ("mutation", Fstr);
              ("killed", Fbool);
              ("schedules", Fnum);
              ("minimized_len", Fnum_or_null);
              ("seconds", Fnum);
            ] );
      ] );
    ( "E22-mvcc",
      [
        ( "readonly",
          Arr_of
            [
              ("mode", Fstr);
              ("readers", Fnum);
              ("reader_aborts", Fnum);
              ("writer_txns", Fnum);
              ("seconds", Fnum);
              ("readers_per_s", Fnum);
            ] );
        ( "escrow",
          Arr_of
            [
              ("mode", Fstr);
              ("txns", Fnum);
              ("committed", Fnum);
              ("violations", Fnum);
              ("final_ok", Fbool);
              ("seconds", Fnum);
            ] );
        ( "delegation",
          Arr_of
            [
              ("mode", Fstr);
              ("workers", Fnum);
              ("ops", Fnum);
              ("commits", Fnum);
              ("delegations", Fnum);
              ("final", Fnum);
              ("final_ok", Fbool);
              ("seconds", Fnum);
            ] );
        ( "gc",
          One_of
            [
              ("writes", Fnum);
              ("chain_pinned", Fnum);
              ("versions_pinned", Fnum);
              ("chain_after_close", Fnum);
              ("versions_after_close", Fnum);
            ] );
      ] );
    ( "E23-shard",
      (let curve_point =
         [
           ("domains", Fnum);
           ("committed", Fnum);
           ("cross_committed", Fnum);
           ("cross_aborted", Fnum);
           ("mixed", Fnum);
           ("gave_up", Fnum);
           ("retries", Fnum);
           ("conserved", Fbool);
           ("seconds", Fnum);
           ("txns_per_s", Fnum);
           ("speedup_vs_1", Fnum);
         ]
       and curve_cfg =
         [
           ("wave", Fnum); ("waves", Fnum); ("objects", Fnum); ("zipf_theta", Fnum); ("io_us", Fnum);
         ]
       in
       [
         ("single_shard", Curve_of (curve_cfg, curve_point));
         ("cross_mix", Curve_of (curve_cfg, curve_point));
         ( "conformance",
           One_of
             [ ("domains", Fnum); ("events", Fnum); ("xgc_edges", Fnum); ("violations", Fnum) ] );
       ]) );
    ( "E24-recovery",
      [
        ( "recovery_time",
          Arr_of
            [
              ("log_updates", Fnum);
              ("ckpt", Fstr);
              ("updates_redone", Fnum);
              ("seconds", Fnum);
            ] );
        ( "retirement",
          Arr_of
            [
              ("rounds", Fnum);
              ("txns", Fnum);
              ("checkpoints", Fnum);
              ("segments_created", Fnum);
              ("segments_retired", Fnum);
              ("segments_live", Fnum);
              ("bounded", Fbool);
            ] );
      ] );
    ( "E25-oltp",
      [
        ( "mix",
          Arr_of
            [
              ("config", Fstr);
              ("class", Fstr);
              ("committed", Fnum);
              ("aborted", Fnum);
              ("retries", Fnum);
              ("gave_up", Fnum);
            ] );
        ( "configs",
          Arr_of
            [
              ("config", Fstr);
              ("txns", Fnum);
              ("seconds", Fnum);
              ("txn_per_s", Fnum);
              ("conserved", Fbool);
            ] );
        ( "agentic",
          One_of
            [
              ("agents", Fnum);
              ("plans_failed", Fnum);
              ("steps_committed", Fnum);
              ("compensations", Fnum);
              ("retries", Fnum);
              ("gave_up", Fnum);
              ("conserved", Fbool);
              ("seconds", Fnum);
            ] );
      ] );
  ]

let errors = ref 0

let err file fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "%s: %s\n" file msg)
    fmt

let check_file file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  match parse contents with
  | exception Bad msg -> err file "unparsable: %s" msg
  | json -> (
      match member "experiment" json with
      | Some (Str tag) -> (
          (match member "smoke" json with
          | Some (Bool _) -> ()
          | _ -> err file "missing or non-bool \"smoke\"");
          match List.assoc_opt tag schemas with
          | None -> err file "unknown experiment tag %S" tag
          | Some members ->
              let check_record key i fields elem =
                List.iter
                  (fun (fk, ft) ->
                    match member fk elem with
                    | Some v when type_ok ft v -> ()
                    | Some _ -> err file "%s%s.%s: expected %s" key i fk (field_name ft)
                    | None -> err file "%s%s: missing %S" key i fk)
                  fields
              in
              List.iter
                (fun (key, shape) ->
                  match (shape, member key json) with
                  | Arr_of _, Some (Arr []) -> err file "array %S is empty" key
                  | Arr_of fields, Some (Arr elems) ->
                      List.iteri
                        (fun i elem ->
                          check_record key (Printf.sprintf "[%d]" i) fields elem)
                        elems
                  | Arr_of _, Some _ -> err file "%S is not an array" key
                  | One_of fields, Some (Obj _ as o) -> check_record key "" fields o
                  | One_of _, Some _ -> err file "%S is not an object" key
                  | Curve_of (cfg, point), Some (Obj _ as o) -> (
                      check_record key "" cfg o;
                      match member "points" o with
                      | Some (Arr []) -> err file "%s.points is empty" key
                      | Some (Arr elems) ->
                          List.iteri
                            (fun i elem ->
                              check_record key (Printf.sprintf ".points[%d]" i) point elem)
                            elems
                      | _ -> err file "%s: missing or non-array \"points\"" key)
                  | Curve_of _, Some _ -> err file "%S is not an object" key
                  | _, None -> err file "missing member %S" key)
                members)
      | _ -> err file "missing or non-string \"experiment\"")

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
           String.length f > 6
           && String.sub f 0 6 = "BENCH_"
           && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then begin
    Printf.eprintf "bench_sanity: no BENCH_*.json found in %s\n" dir;
    exit 1
  end;
  List.iter check_file files;
  if !errors = 0 then
    Printf.printf "bench_sanity: %d artifact(s) OK: %s\n" (List.length files)
      (String.concat ", " (List.map Filename.basename files))
  else begin
    Printf.printf "bench_sanity: %d error(s) across %d artifact(s)\n" !errors
      (List.length files);
    exit 1
  end
