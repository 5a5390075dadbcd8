(* Tests for the storage substrate: value codecs and the heap store. *)

module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap = Asset_storage.Heap_store

(* ------------------------------------------------------------------ *)
(* Value                                                               *)

let test_value_int_roundtrip () =
  List.iter
    (fun i -> Alcotest.(check int) "roundtrip" i (Value.to_int (Value.of_int i)))
    [ 0; 1; -1; 42; max_int; min_int ]

let test_value_int_rejects_garbage () =
  Alcotest.check_raises "bad width" (Invalid_argument "Value.to_int: not an 8-byte integer value")
    (fun () -> ignore (Value.to_int (Value.of_string "xyz")))

let test_value_incr () =
  Alcotest.(check int) "incr" 7 (Value.to_int (Value.incr_int (Value.of_int 5) 2));
  Alcotest.(check int) "decr" 3 (Value.to_int (Value.incr_int (Value.of_int 5) (-2)))

let test_value_fields () =
  let v = Value.of_fields [ ("name", "Equator"); ("nights", "3") ] in
  Alcotest.(check (option string)) "field" (Some "Equator") (Value.field v "name");
  Alcotest.(check (option string)) "missing" None (Value.field v "zip");
  let v2 = Value.set_field v "nights" "4" in
  Alcotest.(check (option string)) "updated" (Some "4") (Value.field v2 "nights");
  let v3 = Value.set_field v2 "late" "yes" in
  Alcotest.(check (option string)) "appended" (Some "yes") (Value.field v3 "late");
  Alcotest.(check (option string)) "others kept" (Some "Equator") (Value.field v3 "name")

let test_value_fields_reserved_chars () =
  Alcotest.check_raises "reserved"
    (Invalid_argument "Value.of_fields: field contains reserved character") (fun () ->
      ignore (Value.of_fields [ ("a", "x=y") ]))

let prop_value_fields_roundtrip =
  let field_gen =
    QCheck2.Gen.(
      pair
        (string_size ~gen:(char_range 'a' 'z') (int_range 1 8))
        (string_size ~gen:(char_range '0' '9') (int_range 0 8)))
  in
  QCheck2.Test.make ~name:"fields roundtrip" ~count:200
    QCheck2.Gen.(list_size (int_range 0 8) field_gen)
    (fun fields ->
      (* Deduplicate keys: the codec keeps the first occurrence wins
         semantics of assoc lists. *)
      let dedup =
        List.fold_left
          (fun acc (k, v) -> if List.mem_assoc k acc then acc else acc @ [ (k, v) ])
          [] fields
      in
      Value.to_fields (Value.of_fields dedup) = dedup)

(* ------------------------------------------------------------------ *)
(* Heap store                                                          *)

let test_heap_basic () =
  let s = Heap.store () in
  let o1 = Oid.of_int 1 in
  Alcotest.(check bool) "absent" false (Store.exists s o1);
  Store.write s o1 (Value.of_int 5);
  Alcotest.(check bool) "present" true (Store.exists s o1);
  Alcotest.(check int) "read" 5 (Value.to_int (Store.read_exn s o1));
  Store.delete s o1;
  Alcotest.(check bool) "deleted" false (Store.exists s o1);
  Alcotest.(check (option string)) "read deleted" None
    (Option.map Value.to_string (Store.read s o1))

let test_heap_populate_and_snapshot () =
  let s = Heap.store () in
  Heap.populate s ~n:10 ~value:(fun i -> Value.of_int (i * i));
  Alcotest.(check int) "size" 10 (Store.size s);
  let snap = Store.dump s in
  Alcotest.(check int) "snapshot size" 10 (List.length snap);
  (* Sorted by oid and values correct. *)
  List.iteri
    (fun idx (oid, v) ->
      Alcotest.(check int) "oid order" (idx + 1) (Oid.to_int oid);
      Alcotest.(check int) "value" ((idx + 1) * (idx + 1)) (Value.to_int v))
    snap

let test_store_equal_content () =
  let a = Heap.store () and b = Heap.store () in
  Heap.populate a ~n:5 ~value:Value.of_int;
  Heap.populate b ~n:5 ~value:Value.of_int;
  Alcotest.(check bool) "equal" true (Store.equal_content a b);
  Store.write b (Oid.of_int 3) (Value.of_int 999);
  Alcotest.(check bool) "differs" false (Store.equal_content a b)

let test_store_clear () =
  let s = Heap.store () in
  Heap.populate s ~n:10 ~value:Value.of_int;
  Store.clear s;
  Alcotest.(check int) "empty" 0 (Store.size s);
  Alcotest.(check bool) "gone" false (Store.exists s (Oid.of_int 1))

let () =
  Alcotest.run "asset_storage"
    [
      ( "value",
        [
          Alcotest.test_case "int roundtrip" `Quick test_value_int_roundtrip;
          Alcotest.test_case "int rejects garbage" `Quick test_value_int_rejects_garbage;
          Alcotest.test_case "incr" `Quick test_value_incr;
          Alcotest.test_case "fields" `Quick test_value_fields;
          Alcotest.test_case "fields reserved chars" `Quick test_value_fields_reserved_chars;
          QCheck_alcotest.to_alcotest prop_value_fields_roundtrip;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic" `Quick test_heap_basic;
          Alcotest.test_case "populate + snapshot" `Quick test_heap_populate_and_snapshot;
          Alcotest.test_case "equal_content" `Quick test_store_equal_content;
          Alcotest.test_case "clear" `Quick test_store_clear;
        ] );
    ]
