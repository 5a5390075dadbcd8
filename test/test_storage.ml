(* Tests for the storage substrate: value codecs, the heap store, the
   slotted page, the pager, the buffer pool and the persistent store. *)

module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap = Asset_storage.Heap_store
module Page = Asset_storage.Slotted_page
module Pager = Asset_storage.Pager
module Pool = Asset_storage.Buffer_pool
module Pstore = Asset_storage.Persistent_store

let tmp_file =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asset_test_%d_%d.pages" (Unix.getpid ()) !n)

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

(* ------------------------------------------------------------------ *)
(* Slotted page                                                        *)

let fresh_page ?(size = 512) () = Page.init (Bytes.make size '\000')

let test_page_insert_read () =
  let p = fresh_page () in
  let s0 = Page.insert p (Oid.of_int 10) "hello" in
  let s1 = Page.insert p (Oid.of_int 11) "world!" in
  Alcotest.(check bool) "distinct slots" true (s0 <> s1);
  let oid, body = Page.read_exn p s0 in
  Alcotest.(check int) "oid" 10 (Oid.to_int oid);
  Alcotest.(check string) "body" "hello" body;
  let _, body1 = Page.read_exn p s1 in
  Alcotest.(check string) "body1" "world!" body1

let test_page_delete_and_reuse_slot () =
  let p = fresh_page () in
  let s0 = Page.insert p (Oid.of_int 1) "aaaa" in
  let _s1 = Page.insert p (Oid.of_int 2) "bbbb" in
  Page.delete p s0;
  Alcotest.(check (option (pair int string))) "deleted" None
    (Option.map (fun (o, b) -> (Oid.to_int o, b)) (Page.read p s0));
  let s2 = Page.insert p (Oid.of_int 3) "cccc" in
  Alcotest.(check int) "slot reused" s0 s2

let test_page_update_in_place () =
  let p = fresh_page () in
  let s = Page.insert p (Oid.of_int 1) "abcdef" in
  Alcotest.(check bool) "smaller fits" true (Page.update_in_place p s "xyz");
  let _, body = Page.read_exn p s in
  Alcotest.(check string) "updated" "xyz" body;
  Alcotest.(check bool) "larger rejected" false (Page.update_in_place p s "0123456789")

let test_page_full () =
  let p = fresh_page ~size:64 () in
  Alcotest.check_raises "page full" Page.Page_full (fun () ->
      for i = 1 to 100 do
        ignore (Page.insert p (Oid.of_int i) "0123456789abcdef")
      done)

let test_page_compaction_reclaims () =
  let p = fresh_page ~size:256 () in
  (* Fill, delete alternating records, then insert something that only
     fits after compaction. *)
  let slots = List.init 8 (fun i -> Page.insert p (Oid.of_int i) "0123456789") in
  List.iteri (fun i s -> if i mod 2 = 0 then Page.delete p s) slots;
  let big = String.make (Page.total_free p - Page.record_header - Page.slot_size) 'z' in
  (match Page.insert p (Oid.of_int 100) big with
  | exception Page.Page_full -> ()
  | _ -> Alcotest.fail "expected fragmentation to force Page_full");
  let s = Page.insert_with_compaction p (Oid.of_int 100) big in
  let oid, body = Page.read_exn p s in
  Alcotest.(check int) "oid" 100 (Oid.to_int oid);
  Alcotest.(check string) "body survives compaction" big body;
  (* Live records kept their slots and contents. *)
  List.iteri
    (fun i slot ->
      if i mod 2 = 1 then begin
        let oid, body = Page.read_exn p slot in
        Alcotest.(check int) "live oid" i (Oid.to_int oid);
        Alcotest.(check string) "live body" "0123456789" body
      end)
    slots

let test_page_iter_skips_deleted () =
  let p = fresh_page () in
  let s0 = Page.insert p (Oid.of_int 1) "a" in
  let _ = Page.insert p (Oid.of_int 2) "b" in
  Page.delete p s0;
  let seen = ref [] in
  Page.iter p (fun _ oid body -> seen := (Oid.to_int oid, body) :: !seen);
  Alcotest.(check (list (pair int string))) "only live" [ (2, "b") ] !seen

(* Model-based property: a slotted page behaves like an association
   list under random insert/delete/update. *)
let prop_page_model =
  let op_gen =
    QCheck2.Gen.(
      oneof
        [
          map (fun (o, len) -> `Insert (o, len)) (pair (int_range 1 30) (int_range 0 20));
          map (fun i -> `Delete i) (int_range 0 20);
          map (fun (i, len) -> `Update (i, len)) (pair (int_range 0 20) (int_range 0 20));
        ])
  in
  QCheck2.Test.make ~name:"slotted page matches model" ~count:300
    QCheck2.Gen.(list_size (int_range 0 40) op_gen)
    (fun ops ->
      let p = fresh_page ~size:1024 () in
      let model : (int, int * string) Hashtbl.t = Hashtbl.create 16 in
      (* model maps slot -> (oid, body) *)
      List.iter
        (fun op ->
          match op with
          | `Insert (oid, len) -> (
              let body = String.make len 'x' in
              match Page.insert_with_compaction p (Oid.of_int oid) body with
              | slot -> Hashtbl.replace model slot (oid, body)
              | exception Page.Page_full -> ())
          | `Delete slot ->
              Page.delete p slot;
              Hashtbl.remove model slot
          | `Update (slot, len) ->
              if Hashtbl.mem model slot then begin
                let body = String.make len 'u' in
                if Page.update_in_place p slot body then
                  let oid, _ = Hashtbl.find model slot in
                  Hashtbl.replace model slot (oid, body)
              end)
        ops;
      Hashtbl.fold
        (fun slot (oid, body) ok ->
          ok
          &&
          match Page.read p slot with
          | Some (o, b) -> Oid.to_int o = oid && String.equal b body
          | None -> false)
        model true)

(* ------------------------------------------------------------------ *)
(* Pager                                                               *)

let test_pager_create_alloc_rw () =
  let path = tmp_file () in
  let p = Pager.create ~page_size:256 path in
  Alcotest.(check int) "no pages yet" 0 (Pager.npages p);
  let pid = Pager.alloc_page p in
  Alcotest.(check int) "first page" 1 pid;
  let b = Bytes.make 256 'q' in
  Pager.write_page p pid b;
  let r = Pager.read_page p pid in
  Alcotest.(check bytes) "roundtrip" b r;
  Pager.close p;
  Sys.remove path

let test_pager_reopen () =
  let path = tmp_file () in
  let p = Pager.create ~page_size:128 path in
  let pid = Pager.alloc_page p in
  Pager.write_page p pid (Bytes.make 128 'z');
  Pager.close p;
  let p2 = Pager.open_existing path in
  Alcotest.(check int) "page size preserved" 128 (Pager.page_size p2);
  Alcotest.(check int) "npages preserved" 1 (Pager.npages p2);
  Alcotest.(check bytes) "content preserved" (Bytes.make 128 'z') (Pager.read_page p2 pid);
  Pager.close p2;
  Sys.remove path

let test_pager_bad_magic () =
  let path = tmp_file () in
  let oc = open_out path in
  output_string oc (String.make 64 'j');
  close_out oc;
  (match Pager.open_existing path with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected magic check to fail");
  Sys.remove path

let test_pager_range_check () =
  let path = tmp_file () in
  let p = Pager.create path in
  (match Pager.read_page p 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected range error");
  Pager.close p;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Buffer pool                                                         *)

let test_pool_hit_miss_eviction () =
  let path = tmp_file () in
  let pager = Pager.create ~page_size:128 path in
  let p1 = Pager.alloc_page pager and p2 = Pager.alloc_page pager and p3 = Pager.alloc_page pager in
  let pool = Pool.create ~capacity:2 pager in
  Pool.with_page pool p1 (fun _ -> ());
  Pool.with_page pool p1 (fun _ -> ());
  Alcotest.(check int) "one miss" 1 (Pool.miss_count pool);
  Alcotest.(check int) "one hit" 1 (Pool.hit_count pool);
  Pool.with_page pool p2 (fun _ -> ());
  Pool.with_page pool p3 (fun _ -> ());
  Alcotest.(check int) "eviction happened" 1 (Pool.eviction_count pool);
  Alcotest.(check int) "capacity respected" 2 (Pool.cached_pages pool);
  Pager.close pager;
  Sys.remove path

let test_pool_dirty_writeback () =
  let path = tmp_file () in
  let pager = Pager.create ~page_size:128 path in
  let pid = Pager.alloc_page pager in
  let pool = Pool.create ~capacity:1 pager in
  Pool.with_page pool pid (fun f ->
      Bytes.fill f.Pool.bytes 0 128 'd';
      Pool.mark_dirty f);
  Pool.flush_all pool;
  Alcotest.(check bytes) "written back" (Bytes.make 128 'd') (Pager.read_page pager pid);
  Pager.close pager;
  Sys.remove path

let test_pool_crash_loses_unflushed () =
  let path = tmp_file () in
  let pager = Pager.create ~page_size:128 path in
  let pid = Pager.alloc_page pager in
  let pool = Pool.create ~capacity:4 pager in
  Pool.with_page pool pid (fun f ->
      Bytes.fill f.Pool.bytes 0 128 'w';
      Pool.mark_dirty f);
  Pool.crash pool;
  (* The dirty frame is gone; disk still has zeroes. *)
  Pool.with_page pool pid (fun f ->
      Alcotest.(check char) "lost" '\000' (Bytes.get f.Pool.bytes 0));
  Pager.close pager;
  Sys.remove path

let test_pool_lru_eviction_order () =
  (* Re-touching a resident page must move it to the MRU end: with
     capacity 2, touching p1, p2, then p1 again makes p2 the victim
     when p3 arrives. *)
  let path = tmp_file () in
  let pager = Pager.create ~page_size:128 path in
  let p1 = Pager.alloc_page pager and p2 = Pager.alloc_page pager and p3 = Pager.alloc_page pager in
  let pool = Pool.create ~capacity:2 pager in
  Pool.with_page pool p1 (fun _ -> ());
  Pool.with_page pool p2 (fun _ -> ());
  Pool.with_page pool p1 (fun _ -> ());
  Pool.with_page pool p3 (fun _ -> ());
  (* p2 was evicted, p1 survived. *)
  let hits = Pool.hit_count pool and misses = Pool.miss_count pool in
  Pool.with_page pool p1 (fun _ -> ());
  Alcotest.(check int) "p1 resident (hit)" (hits + 1) (Pool.hit_count pool);
  Pool.with_page pool p2 (fun _ -> ());
  Alcotest.(check int) "p2 evicted (miss)" (misses + 1) (Pool.miss_count pool);
  Pager.close pager;
  Sys.remove path

let test_pool_pinned_skips_eviction () =
  (* A pinned frame is off the LRU list entirely: the unpinned page is
     evicted even though it was touched more recently. *)
  let path = tmp_file () in
  let pager = Pager.create ~page_size:128 path in
  let p1 = Pager.alloc_page pager and p2 = Pager.alloc_page pager and p3 = Pager.alloc_page pager in
  let pool = Pool.create ~capacity:2 pager in
  let f1 = Pool.pin pool p1 in
  Pool.with_page pool p2 (fun _ -> ());
  Pool.with_page pool p3 (fun _ -> ());
  (* p2 (the only unpinned frame) was evicted; pinned p1 survived. *)
  let hits = Pool.hit_count pool in
  Pool.unpin pool f1;
  Pool.with_page pool p1 (fun _ -> ());
  Alcotest.(check int) "pinned page survived" (hits + 1) (Pool.hit_count pool);
  Pager.close pager;
  Sys.remove path

let test_pool_all_pinned_fails () =
  let path = tmp_file () in
  let pager = Pager.create ~page_size:128 path in
  let p1 = Pager.alloc_page pager and p2 = Pager.alloc_page pager in
  let pool = Pool.create ~capacity:1 pager in
  let f1 = Pool.pin pool p1 in
  (match Pool.pin pool p2 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected all-pinned failure");
  Pool.unpin pool f1;
  Pager.close pager;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Persistent store                                                    *)

let test_pstore_write_read_delete () =
  let path = tmp_file () in
  let ps = Pstore.create ~page_size:256 path in
  let s = Pstore.to_store ps in
  Store.write s (Oid.of_int 1) (Value.of_string "hello");
  Store.write s (Oid.of_int 2) (Value.of_string "world");
  Alcotest.(check (option string)) "read 1" (Some "hello")
    (Option.map Value.to_string (Store.read s (Oid.of_int 1)));
  Store.delete s (Oid.of_int 1);
  Alcotest.(check bool) "deleted" false (Store.exists s (Oid.of_int 1));
  Alcotest.(check int) "size" 1 (Store.size s);
  Pstore.close ps;
  Sys.remove path

let test_pstore_update_grows_record () =
  let path = tmp_file () in
  let ps = Pstore.create ~page_size:256 path in
  let s = Pstore.to_store ps in
  Store.write s (Oid.of_int 1) (Value.of_string "tiny");
  Store.write s (Oid.of_int 1) (Value.of_string (String.make 100 'G'));
  Alcotest.(check (option string)) "grown" (Some (String.make 100 'G'))
    (Option.map Value.to_string (Store.read s (Oid.of_int 1)));
  Pstore.close ps;
  Sys.remove path

let test_pstore_many_objects_multi_page () =
  let path = tmp_file () in
  let ps = Pstore.create ~page_size:256 path in
  let s = Pstore.to_store ps in
  for i = 1 to 100 do
    Store.write s (Oid.of_int i) (Value.of_string (Printf.sprintf "object-%d" i))
  done;
  Alcotest.(check int) "size" 100 (Store.size s);
  for i = 1 to 100 do
    Alcotest.(check (option string)) "content" (Some (Printf.sprintf "object-%d" i))
      (Option.map Value.to_string (Store.read s (Oid.of_int i)))
  done;
  Pstore.close ps;
  Sys.remove path

let test_pstore_reopen_rebuilds_table () =
  let path = tmp_file () in
  let ps = Pstore.create ~page_size:256 path in
  let s = Pstore.to_store ps in
  for i = 1 to 30 do
    Store.write s (Oid.of_int i) (Value.of_int (i * 7))
  done;
  Pstore.close ps;
  let ps2 = Pstore.open_existing path in
  let s2 = Pstore.to_store ps2 in
  Alcotest.(check int) "size after reopen" 30 (Store.size s2);
  for i = 1 to 30 do
    Alcotest.(check int) "value after reopen" (i * 7) (Value.to_int (Store.read_exn s2 (Oid.of_int i)))
  done;
  Pstore.close ps2;
  Sys.remove path

let test_pstore_crash_loses_unflushed () =
  let path = tmp_file () in
  let ps = Pstore.create ~page_size:256 path in
  let s = Pstore.to_store ps in
  Store.write s (Oid.of_int 1) (Value.of_string "durable");
  Store.flush s;
  Store.write s (Oid.of_int 2) (Value.of_string "volatile");
  Pstore.crash_and_reopen ps;
  Alcotest.(check (option string)) "flushed survives" (Some "durable")
    (Option.map Value.to_string (Store.read s (Oid.of_int 1)));
  Alcotest.(check bool) "unflushed lost" false (Store.exists s (Oid.of_int 2));
  Pstore.close ps;
  Sys.remove path

(* Whether a flush survives a crash is a fact of the store: the engine
   checkpoints over it only when it does. *)
let test_durable_flush () =
  let path = tmp_file () in
  let ps = Pstore.create ~page_size:256 path in
  let heap = Heap.store () in
  Alcotest.(check bool) "heap flush is volatile" false (Store.durable heap);
  Alcotest.(check bool) "persistent flush is durable" true (Store.durable (Pstore.to_store ps));
  Alcotest.(check bool) "an MVCC wrap keeps it" false
    (Store.durable (Asset_storage.Mvcc_store.wrap heap));
  Alcotest.(check bool) "over a durable store too" true
    (Store.durable (Asset_storage.Mvcc_store.wrap (Pstore.to_store ps)));
  Pstore.close ps;
  Sys.remove path

let prop_pstore_model =
  QCheck2.Test.make ~name:"persistent store matches heap store" ~count:60
    QCheck2.Gen.(
      list_size (int_range 0 60)
        (oneof
           [
             map (fun (o, len) -> `Write (o, len)) (pair (int_range 1 20) (int_range 0 40));
             map (fun o -> `Delete o) (int_range 1 20);
           ]))
    (fun ops ->
      let path = tmp_file () in
      let ps = Pstore.create ~page_size:256 path in
      let s = Pstore.to_store ps in
      let reference = Heap.store () in
      List.iter
        (fun op ->
          match op with
          | `Write (o, len) ->
              let v = Value.of_string (String.make len 'p') in
              Store.write s (Oid.of_int o) v;
              Store.write reference (Oid.of_int o) v
          | `Delete o ->
              Store.delete s (Oid.of_int o);
              Store.delete reference (Oid.of_int o))
        ops;
      let ok = Store.equal_content s reference in
      Pstore.close ps;
      Sys.remove path;
      ok)

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
        ] );
      ( "slotted_page",
        [
          Alcotest.test_case "insert/read" `Quick test_page_insert_read;
          Alcotest.test_case "delete and slot reuse" `Quick test_page_delete_and_reuse_slot;
          Alcotest.test_case "update in place" `Quick test_page_update_in_place;
          Alcotest.test_case "page full" `Quick test_page_full;
          Alcotest.test_case "compaction" `Quick test_page_compaction_reclaims;
          Alcotest.test_case "iter skips deleted" `Quick test_page_iter_skips_deleted;
          QCheck_alcotest.to_alcotest prop_page_model;
        ] );
      ( "pager",
        [
          Alcotest.test_case "create/alloc/rw" `Quick test_pager_create_alloc_rw;
          Alcotest.test_case "reopen" `Quick test_pager_reopen;
          Alcotest.test_case "bad magic" `Quick test_pager_bad_magic;
          Alcotest.test_case "range check" `Quick test_pager_range_check;
        ] );
      ( "buffer_pool",
        [
          Alcotest.test_case "hit/miss/eviction" `Quick test_pool_hit_miss_eviction;
          Alcotest.test_case "dirty writeback" `Quick test_pool_dirty_writeback;
          Alcotest.test_case "crash loses unflushed" `Quick test_pool_crash_loses_unflushed;
          Alcotest.test_case "lru eviction order" `Quick test_pool_lru_eviction_order;
          Alcotest.test_case "pinned skips eviction" `Quick test_pool_pinned_skips_eviction;
          Alcotest.test_case "all pinned fails" `Quick test_pool_all_pinned_fails;
        ] );
      ( "persistent_store",
        [
          Alcotest.test_case "write/read/delete" `Quick test_pstore_write_read_delete;
          Alcotest.test_case "update grows record" `Quick test_pstore_update_grows_record;
          Alcotest.test_case "multi-page" `Quick test_pstore_many_objects_multi_page;
          Alcotest.test_case "reopen rebuilds table" `Quick test_pstore_reopen_rebuilds_table;
          Alcotest.test_case "crash loses unflushed" `Quick test_pstore_crash_loses_unflushed;
          Alcotest.test_case "flush durability is a fact of the store" `Quick test_durable_flush;
          QCheck_alcotest.to_alcotest prop_pstore_model;
        ] );
    ]
