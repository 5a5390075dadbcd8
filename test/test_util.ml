(* Tests for asset_util: identifiers, the deterministic RNG (including
   SplitMix64 reference vectors), CRC-32 published test vectors, the
   Zipf sampler, counters/summaries/histograms, table rendering and the
   JSON codec. *)

module Id = Asset_util.Id
module Rng = Asset_util.Rng
module Crc32 = Asset_util.Crc32
module Zipf = Asset_util.Zipf
module Stats = Asset_util.Stats
module Table = Asset_util.Table
module Json = Asset_util.Json

(* ------------------------------------------------------------------ *)
(* Id                                                                  *)

let test_id_null () =
  Alcotest.(check bool) "null is null" true (Id.Tid.is_null Id.Tid.null);
  Alcotest.(check bool) "fresh is not null" false
    (Id.Tid.is_null (Id.Tid.fresh (Id.Tid.generator ())))

let test_id_fresh_monotonic () =
  let g = Id.Tid.generator () in
  let a = Id.Tid.fresh g and b = Id.Tid.fresh g and c = Id.Tid.fresh g in
  Alcotest.(check bool) "a < b" true (Id.Tid.compare a b < 0);
  Alcotest.(check bool) "b < c" true (Id.Tid.compare b c < 0);
  Alcotest.(check bool) "distinct" false (Id.Tid.equal a c)

let test_id_generators_independent () =
  let g1 = Id.Tid.generator () and g2 = Id.Tid.generator () in
  let a = Id.Tid.fresh g1 and b = Id.Tid.fresh g2 in
  Alcotest.(check int) "same sequence" (Id.Tid.to_int a) (Id.Tid.to_int b)

let test_id_roundtrip () =
  let t = Id.Tid.of_int 42 in
  Alcotest.(check int) "roundtrip" 42 (Id.Tid.to_int t);
  Alcotest.(check string) "pp" "t42" (Format.asprintf "%a" Id.Tid.pp t);
  Alcotest.(check string) "pp null" "t:null" (Format.asprintf "%a" Id.Tid.pp Id.Tid.null)

let test_oid_distinct_prefix () =
  Alcotest.(check string) "oid pp" "ob7" (Format.asprintf "%a" Id.Oid.pp (Id.Oid.of_int 7))

(* [to_string] is the text wait reasons and fiber labels are built
   from: it must equal [pp]'s output and the [Format] rendering [pp]
   used to produce ("%s%d", or "%s:null" for the null id). *)
let prop_id_to_string_matches_pp =
  QCheck2.Test.make ~name:"Tid/Oid to_string = pp = Format rendering" ~count:500
    QCheck2.Gen.(oneof [ return 0; small_signed_int; int ])
    (fun i ->
      let check (type a) (module M : Id.S with type t = a) prefix (x : a) =
        let formatted =
          if M.is_null x then Format.asprintf "%s:null" prefix
          else Format.asprintf "%s%d" prefix (M.to_int x)
        in
        M.to_string x = Format.asprintf "%a" M.pp x && M.to_string x = formatted
      in
      check (module Id.Tid) "t" (Id.Tid.of_int i) && check (module Id.Oid) "ob" (Id.Oid.of_int i))

(* ------------------------------------------------------------------ *)
(* Rng                                                                 *)

let test_rng_deterministic () =
  let a = Rng.create 123 and b = Rng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "in [0,10)" true (x >= 0 && x < 10)
  done

let test_rng_float_unit_interval () =
  let r = Rng.create 9 in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_bool_mixes () =
  let r = Rng.create 11 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Rng.bool r then incr trues
  done;
  Alcotest.(check bool) "roughly balanced" true (!trues > 400 && !trues < 600)

let test_rng_split_independent () =
  let r = Rng.create 5 in
  let child = Rng.split r in
  (* The child stream should not be the parent's continuation. *)
  let parent_next = Rng.int r 1_000_000 and child_next = Rng.int child 1_000_000 in
  Alcotest.(check bool) "split differs" true (parent_next <> child_next)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle_in_place r arr;
  let sorted = Array.copy arr in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_rng_copy () =
  let r = Rng.create 17 in
  ignore (Rng.int r 100);
  let c = Rng.copy r in
  Alcotest.(check int) "copy continues identically" (Rng.int r 1_000_000) (Rng.int c 1_000_000)

let test_rng_splitmix64_reference () =
  (* First outputs of SplitMix64 from seed 0, per the reference
     implementation in Steele, Lea & Flood (OOPSLA 2014) — the same
     vectors Java's SplittableRandom and the xoshiro seeding docs
     publish.  Pins the generator against accidental algorithm
     drift, which would silently change every seeded schedule and
     workload in the repository. *)
  let r = Rng.create 0 in
  List.iter
    (fun expected ->
      Alcotest.(check string) "splitmix64(seed 0) stream" expected
        (Printf.sprintf "0x%016Lx" (Rng.next_int64 r)))
    [ "0xe220a8397b1dcdaf"; "0x6e789e6aa1b965f4"; "0x06c45d188009454f" ]

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)

let test_crc32_published_vectors () =
  (* IEEE 802.3 (polynomial 0xEDB88320, reflected) check values. *)
  List.iter
    (fun (s, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "crc32(%S)" s)
        (Printf.sprintf "0x%08x" expected)
        (Printf.sprintf "0x%08x" (Crc32.string s)))
    [
      ("", 0x00000000);
      ("a", 0xE8B7BE43);
      ("abc", 0x352441C2);
      ("123456789", 0xCBF43926);
      ("The quick brown fox jumps over the lazy dog", 0x414FA339);
    ]

let test_crc32_update_chunked () =
  (* Incremental update over arbitrary chunk boundaries must agree
     with the one-shot checksum — the WAL writes records through the
     incremental interface. *)
  let s = "0123456789abcdefghijklmnopqrstuvwxyz" in
  let full = Crc32.string s in
  let len = String.length s in
  for cut1 = 0 to len do
    let cut2 = (cut1 + 7) mod (len + 1) in
    let lo = min cut1 cut2 and hi = max cut1 cut2 in
    let crc = Crc32.update 0 s 0 lo in
    let crc = Crc32.update crc s lo (hi - lo) in
    let crc = Crc32.update crc s hi (len - hi) in
    Alcotest.(check int) (Printf.sprintf "chunked at %d/%d" lo hi) full crc
  done

(* ------------------------------------------------------------------ *)
(* Zipf                                                                *)

let test_zipf_uniform_when_theta_zero () =
  let rng = Rng.create 21 in
  let z = Zipf.create ~n:10 ~theta:0.0 ~rng in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let i = Zipf.sample z in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 700 && c < 1300))
    counts

let test_zipf_skew () =
  let rng = Rng.create 22 in
  let z = Zipf.create ~n:100 ~theta:1.0 ~rng in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let i = Zipf.sample z in
    counts.(i) <- counts.(i) + 1
  done;
  (* Rank 0 must dominate rank 50 by a wide margin under theta=1. *)
  Alcotest.(check bool) "head heavier than middle" true (counts.(0) > 5 * (counts.(50) + 1));
  Alcotest.(check int) "n accessor" 100 (Zipf.n z)

let test_zipf_range () =
  let rng = Rng.create 23 in
  let z = Zipf.create ~n:7 ~theta:0.9 ~rng in
  for _ = 1 to 1000 do
    let i = Zipf.sample z in
    Alcotest.(check bool) "in range" true (i >= 0 && i < 7)
  done

let test_zipf_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n=0" (Invalid_argument "Zipf.create: n must be positive") (fun () ->
      ignore (Zipf.create ~n:0 ~theta:1.0 ~rng));
  Alcotest.check_raises "negative theta" (Invalid_argument "Zipf.create: theta must be >= 0")
    (fun () -> ignore (Zipf.create ~n:5 ~theta:(-1.0) ~rng))

let test_zipf_theta_near_one_boundary () =
  (* theta -> 1 is where a closed-form generalized-harmonic sampler
     would divide by (1 - theta); the cumulative-array construction
     must stay finite and continuous across the boundary.  Sample
     distributions just below, at, and just above 1 and check each is
     valid and monotonically more skewed. *)
  let head_share theta =
    let rng = Rng.create 97 in
    let z = Zipf.create ~n:50 ~theta ~rng in
    let head = ref 0 in
    for _ = 1 to 20_000 do
      let i = Zipf.sample z in
      Alcotest.(check bool) "in range" true (i >= 0 && i < 50);
      if i = 0 then incr head
    done;
    !head
  in
  let below = head_share 0.999 and at = head_share 1.0 and above = head_share 1.001 in
  (* Continuity: the three shares are within a few percent of each
     other (theta differs by 1e-3), far from degenerate. *)
  List.iter
    (fun (name, v) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s head share sane (%d)" name v)
        true
        (v > 2_000 && v < 10_000))
    [ ("theta=0.999", below); ("theta=1.0", at); ("theta=1.001", above) ];
  let near a b = abs (a - b) < 600 in
  Alcotest.(check bool) "continuous below->at" true (near below at);
  Alcotest.(check bool) "continuous at->above" true (near at above)

(* ------------------------------------------------------------------ *)
(* Stats                                                               *)

let test_counter () =
  let c = Stats.Counter.create "c" in
  Alcotest.(check int) "starts at 0" 0 (Stats.Counter.get c);
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  Alcotest.(check int) "incr+add" 5 (Stats.Counter.get c);
  Stats.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Stats.Counter.get c);
  Alcotest.(check string) "name" "c" (Stats.Counter.name c)

let test_counter_get_is_pure () =
  (* The repo-wide discipline: reading a counter never resets it —
     [reset] is the one explicit reset point (see Engine.reset_stats
     and its lock-manager/dep-graph counterparts). *)
  let c = Stats.Counter.create "pure" in
  Stats.Counter.add c 7;
  Alcotest.(check int) "first read" 7 (Stats.Counter.get c);
  Alcotest.(check int) "second read unchanged" 7 (Stats.Counter.get c);
  Stats.Counter.incr c;
  Alcotest.(check int) "still accumulating" 8 (Stats.Counter.get c);
  Stats.Counter.reset c;
  Alcotest.(check int) "explicit reset zeroes" 0 (Stats.Counter.get c);
  Stats.Counter.incr c;
  Alcotest.(check int) "counts again after reset" 1 (Stats.Counter.get c)

let test_histogram () =
  let h = Stats.Histogram.create "h" ~bounds:[| 10; 100 |] in
  List.iter (Stats.Histogram.observe h) [ 1; 5; 10; 50; 99; 1000 ];
  Alcotest.(check (array int)) "buckets" [| 3; 2; 1 |] (Stats.Histogram.buckets h);
  Alcotest.(check int) "total" 6 (Stats.Histogram.total h)

let test_histogram_unsorted_bounds () =
  let h = Stats.Histogram.create "h" ~bounds:[| 100; 10 |] in
  Stats.Histogram.observe h 50;
  Alcotest.(check (array int)) "bounds get sorted" [| 0; 1; 0 |] (Stats.Histogram.buckets h)

(* ------------------------------------------------------------------ *)
(* Table                                                               *)

let test_table_render () =
  let t = Table.create ~title:"T" ~header:[ "a"; "bb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let s = Format.asprintf "%a" Table.pp t in
  Alcotest.(check bool) "title present" true (String.length s > 0);
  Alcotest.(check bool) "contains rows" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && l.[0] = '3'))

let test_table_row_width_checked () =
  let t = Table.create ~title:"T" ~header:[ "a"; "b" ] in
  Alcotest.check_raises "bad row" (Invalid_argument "Table.add_row: row width does not match header")
    (fun () -> Table.add_row t [ "only one" ])

let test_table_rows_in_insertion_order () =
  let t = Table.create ~title:"T" ~header:[ "x" ] in
  Table.add_row t [ "first" ];
  Table.add_row t [ "second" ];
  let s = Format.asprintf "%a" Table.pp t in
  let first_idx =
    match String.index_opt s 'f' with Some i -> i | None -> Alcotest.fail "missing first"
  in
  let second_idx =
    let rec find i = if String.sub s i 6 = "second" then i else find (i + 1) in
    find 0
  in
  Alcotest.(check bool) "order preserved" true (first_idx < second_idx)

let test_table_growth_and_alignment () =
  (* Many rows with growing cell widths: every rendered row must
     survive (no silent truncation as the internal row list grows)
     and all lines must be padded to one consistent width once the
     widest cell has been seen. *)
  let t = Table.create ~title:"growth" ~header:[ "k"; "v" ] in
  let n = 200 in
  for i = 1 to n do
    Table.add_row t [ string_of_int i; String.make (i mod 37) 'x' ]
  done;
  let s = Format.asprintf "%a" Table.pp t in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  (* title + header + rule + n rows *)
  Alcotest.(check bool)
    (Printf.sprintf "all %d rows rendered (%d lines)" n (List.length lines))
    true
    (List.length lines >= n + 2);
  let row_lines =
    (* Rows start with a digit; header/rule/title do not. *)
    List.filter (fun l -> l.[0] >= '0' && l.[0] <= '9') lines
  in
  Alcotest.(check int) "every row present" n (List.length row_lines)

let test_table_fmt_roundtrip () =
  Alcotest.(check string) "fmt_i" "42" (Table.fmt_i 42);
  Alcotest.(check string) "fmt_f default 2 digits" "3.14" (Table.fmt_f 3.14159);
  Alcotest.(check string) "fmt_f digits 0" "3" (Table.fmt_f ~digits:0 3.14159);
  (* Round-trip: parsing the rendering recovers the value at the
     rendered precision. *)
  Alcotest.(check (float 0.01)) "fmt_f parses back" 3.14
    (float_of_string (Table.fmt_f 3.14159));
  Alcotest.(check int) "fmt_i parses back" (-7) (int_of_string (Table.fmt_i (-7)))

(* ------------------------------------------------------------------ *)
(* Property tests                                                      *)

let prop_rng_int_in_bounds =
  QCheck2.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck2.Gen.(pair small_int (int_range 1 1_000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_zipf_in_range =
  QCheck2.Test.make ~name:"zipf sample in [0,n)" ~count:200
    QCheck2.Gen.(triple small_int (int_range 1 500) (float_bound_inclusive 2.0))
    (fun (seed, n, theta) ->
      let rng = Rng.create seed in
      let z = Zipf.create ~n ~theta ~rng in
      let ok = ref true in
      for _ = 1 to 50 do
        let i = Zipf.sample z in
        if i < 0 || i >= n then ok := false
      done;
      !ok)

let prop_shuffle_preserves_elements =
  QCheck2.Test.make ~name:"shuffle is a permutation" ~count:200
    QCheck2.Gen.(pair small_int (list small_int))
    (fun (seed, l) ->
      let r = Rng.create seed in
      let arr = Array.of_list l in
      Rng.shuffle_in_place r arr;
      List.sort Int.compare (Array.to_list arr) = List.sort Int.compare l)

(* ------------------------------------------------------------------ *)
(* Json                                                                *)

let json_roundtrips v =
  Json.parse (Json.to_string v) = v && Json.parse (Json.to_string ~pretty:true v) = v

let test_json_roundtrip () =
  List.iter
    (fun v -> Alcotest.(check bool) (Json.to_string v) true (json_roundtrips v))
    Json.
      [
        Float 0.5;
        Float (-2.25);
        Float 3.0;
        Float 0.1;
        Float (1. /. 3.);
        Float 1e-7;
        Float (-6.02e23);
        Int (-42);
        Bool true;
        Bool false;
        Null;
        Str "quote\" backslash\\ slash/ newline\n tab\t cr\r ctrl\001";
        List [ List [ Int 1; List []; Null ]; Obj []; List [ Obj [ ("a", List [ Float (-0.5) ]) ] ] ];
        Obj
          [
            ("rows", List [ Obj [ ("x", Float 2.5); ("ok", Bool true) ]; Obj [ ("x", Null); ("ok", Bool false) ] ]);
            ("n", Int 2);
          ];
      ]

let test_json_parse_numbers () =
  Alcotest.(check bool) "ints stay ints, fractions and exponents are floats" true
    (Json.parse "[-1.5e3, 2E-2, 7, -0, 1e+2]"
    = Json.List [ Float (-1500.); Float 0.02; Int 7; Int 0; Float 100. ])

let test_json_non_finite_raises () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | s -> Alcotest.failf "printed %s" s
      | exception Invalid_argument _ -> ())
    [ infinity; neg_infinity; nan ]

let test_json_malformed_raises () =
  List.iter
    (fun s ->
      match Json.parse s with
      | _ -> Alcotest.failf "parsed %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{\"a\": 1"; "[1,]"; "tru"; "1 2"; "\"open"; "--1"; "1.2.3" ]

let test_json_pretty_rows () =
  Alcotest.(check string) "one member and one row per line"
    "{\n  \"n\": 1,\n  \"rows\": [\n    {\"x\": 1},\n    {\"x\": 2.5}\n  ]\n}"
    (Json.to_string ~pretty:true
       Json.(Obj [ ("n", Int 1); ("rows", List [ Obj [ ("x", Int 1) ]; Obj [ ("x", Float 2.5) ] ]) ]))

let prop_json_float_roundtrip =
  QCheck2.Test.make ~name:"json float round-trips" ~count:500 QCheck2.Gen.float (fun f ->
      QCheck2.assume (Float.is_finite f);
      Json.parse (Json.to_string (Json.Float f)) = Json.Float f)

let () =
  Alcotest.run "asset_util"
    [
      ( "id",
        [
          Alcotest.test_case "null" `Quick test_id_null;
          Alcotest.test_case "fresh monotonic" `Quick test_id_fresh_monotonic;
          Alcotest.test_case "generators independent" `Quick test_id_generators_independent;
          Alcotest.test_case "roundtrip and pp" `Quick test_id_roundtrip;
          Alcotest.test_case "oid prefix" `Quick test_oid_distinct_prefix;
          QCheck_alcotest.to_alcotest prop_id_to_string_matches_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "float unit interval" `Quick test_rng_float_unit_interval;
          Alcotest.test_case "bool mixes" `Quick test_rng_bool_mixes;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "splitmix64 reference vectors" `Quick test_rng_splitmix64_reference;
          QCheck_alcotest.to_alcotest prop_rng_int_in_bounds;
          QCheck_alcotest.to_alcotest prop_shuffle_preserves_elements;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "published vectors" `Quick test_crc32_published_vectors;
          Alcotest.test_case "chunked update equivalence" `Quick test_crc32_update_chunked;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "uniform at theta 0" `Quick test_zipf_uniform_when_theta_zero;
          Alcotest.test_case "skew at theta 1" `Quick test_zipf_skew;
          Alcotest.test_case "range" `Quick test_zipf_range;
          Alcotest.test_case "invalid args" `Quick test_zipf_invalid_args;
          Alcotest.test_case "theta near 1 boundary" `Quick test_zipf_theta_near_one_boundary;
          QCheck_alcotest.to_alcotest prop_zipf_in_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "counter get is pure" `Quick test_counter_get_is_pure;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "histogram unsorted bounds" `Quick test_histogram_unsorted_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "row width checked" `Quick test_table_row_width_checked;
          Alcotest.test_case "insertion order" `Quick test_table_rows_in_insertion_order;
          Alcotest.test_case "growth and alignment" `Quick test_table_growth_and_alignment;
          Alcotest.test_case "fmt helpers roundtrip" `Quick test_table_fmt_roundtrip;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse numbers" `Quick test_json_parse_numbers;
          Alcotest.test_case "non-finite float raises" `Quick test_json_non_finite_raises;
          Alcotest.test_case "malformed input raises" `Quick test_json_malformed_raises;
          Alcotest.test_case "pretty rows" `Quick test_json_pretty_rows;
          QCheck_alcotest.to_alcotest prop_json_float_roundtrip;
        ] );
    ]
