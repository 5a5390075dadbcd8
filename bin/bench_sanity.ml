(* Sanity checker for the BENCH_*.json artifacts.

   Each benchmark experiment that tracks a perf or state-space
   trajectory writes a machine-readable JSON artifact; reviewers diff
   the committed full-run ones across PRs, and CI regenerates a smoke
   twin of each.  This tool checks, in the given directory:

   - every full-run artifact BENCH_<name>.json parses and carries its
     experiment tag, "smoke": false and the host it ran on;
   - every BENCH_<name>_smoke.json has a committed twin with the same
     experiment tag and the same shape: the same top-level members,
     the same field names with the same JSON types in every row, and
     no empty array.  null matches any type (a column may be absent
     for some rows).

   The committed artifact is the schema, so an experiment that adds,
   drops or retypes a field without regenerating its artifact fails.

   Usage: bench_sanity [dir]   (default: current directory)
   Exit 0 when every artifact is well-formed, 1 otherwise. *)

module Json = Asset_util.Json

let errors = ref 0

let err file fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "%s: %s\n" file msg)
    fmt

let load path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Json.Obj _ as doc -> Some doc
  | _ ->
      err path "not a JSON object";
      None
  | exception Json.Parse_error msg ->
      err path "unparsable: %s" msg;
      None

let field doc k = match doc with Json.Obj fields -> List.assoc_opt k fields | _ -> None

let kind = function
  | Json.Int _ | Json.Float _ -> "number"
  | Json.Str _ -> "string"
  | Json.Bool _ -> "bool"
  | Json.Null -> "null"
  | Json.List _ -> "array"
  | Json.Obj _ -> "object"

(* The smoke value [s] has the shape of the committed value [c]: object
   members match by name and order, and every element of an array
   matches the committed array's first element. *)
let rec same_shape file path c s =
  match (c, s) with
  | Json.Null, _ | _, Json.Null -> ()
  | Json.Obj cf, Json.Obj sf ->
      if List.map fst cf <> List.map fst sf then
        err file "%s: fields [%s], committed has [%s]" path
          (String.concat ", " (List.map fst sf))
          (String.concat ", " (List.map fst cf))
      else List.iter2 (fun (k, cv) (_, sv) -> same_shape file (path ^ "." ^ k) cv sv) cf sf
  | Json.List [], _ -> err file "%s: committed array is empty" path
  | Json.List _, Json.List [] -> err file "%s: array is empty" path
  | Json.List (c0 :: _), Json.List ss ->
      List.iteri (fun i sv -> same_shape file (Printf.sprintf "%s[%d]" path i) c0 sv) ss
  | _ -> if kind c <> kind s then err file "%s: %s, committed has %s" path (kind s) (kind c)

let check_full path doc =
  (match field doc "experiment" with
  | Some (Json.Str _) -> ()
  | _ -> err path "missing or non-string \"experiment\"");
  (match field doc "smoke" with
  | Some (Json.Bool false) -> ()
  | _ -> err path "\"smoke\" must be false in a full-run artifact");
  match field doc "host" with Some (Json.Obj _) -> () | _ -> err path "missing \"host\""

let check_smoke ~dir path doc =
  let twin = Filename.concat dir (Filename.chop_suffix (Filename.basename path) "_smoke.json" ^ ".json") in
  if not (Sys.file_exists twin) then err path "no committed twin %s" (Filename.basename twin)
  else
    match load twin with
    | None -> ()
    | Some committed ->
        if field doc "experiment" <> field committed "experiment" then
          err path "experiment tag differs from %s" (Filename.basename twin);
        same_shape path "$" committed doc

let () =
  let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "." in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  if files = [] then begin
    Printf.eprintf "bench_sanity: no BENCH_*.json found in %s\n" dir;
    exit 1
  end;
  List.iter
    (fun path ->
      match load path with
      | None -> ()
      | Some doc ->
          if Filename.check_suffix path "_smoke.json" then check_smoke ~dir path doc
          else check_full path doc)
    files;
  if !errors = 0 then
    Printf.printf "bench_sanity: %d artifact(s) OK: %s\n" (List.length files)
      (String.concat ", " (List.map Filename.basename files))
  else begin
    Printf.printf "bench_sanity: %d error(s) across %d artifact(s)\n" !errors
      (List.length files);
    exit 1
  end
