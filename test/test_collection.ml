(* Tests for the transactional collections. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Collection = Asset_core.Collection
module Sched = Asset_sched.Scheduler
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store

let oid = Oid.of_int
let vi = Value.of_int

(* ------------------------------------------------------------------ *)
(* Collections                                                         *)

let with_db program = R.with_fresh_db ~objects:0 program

(* Run [body] as one transaction that must commit.  A failed check
   inside a body only aborts its transaction, so the exception is
   re-raised once the transaction is over. *)
let atomically db body =
  let raised = ref None in
  let outcome =
    Asset_models.Atomic.run db (fun () ->
        try body ()
        with e ->
          raised := Some e;
          raise e)
  in
  Option.iter raise !raised;
  if outcome <> `Committed then Alcotest.fail "transaction did not commit"

let test_collection_create_and_find () =
  ignore
    (with_db (fun db ->
         atomically db (fun () ->
           let c = Collection.create db ~name:"parts" () in
           Alcotest.(check string) "name" "parts" c.Collection.name);
         atomically db (fun () ->
           (match Collection.find db ~name:"parts" () with
           | Some _ -> ()
           | None -> Alcotest.fail "collection not found");
           Alcotest.(check bool) "absent name" true
             (Collection.find db ~name:"nope" () = None))))

let test_collection_duplicate_name_rejected () =
  ignore
    (with_db (fun db ->
         atomically db (fun () ->
           ignore (Collection.create db ~name:"dup" ());
           match Collection.create db ~name:"dup" () with
           | exception Invalid_argument _ -> ()
           | _ -> Alcotest.fail "expected duplicate rejection")))

let test_collection_membership () =
  ignore
    (with_db (fun db ->
         atomically db (fun () ->
           let c = Collection.create db ~name:"c" ~chunk_capacity:4 () in
           (* Insert enough members to span several chunks. *)
           List.iter
             (fun i ->
               E.write db (oid i) (vi (i * 2));
               Alcotest.(check bool) "added" true (Collection.add db c (oid i)))
             (List.init 20 (fun i -> 20 - i));
           Alcotest.(check bool) "duplicate add" false (Collection.add db c (oid 5));
           Alcotest.(check int) "cardinal" 20 (Collection.cardinal db c);
           Alcotest.(check bool) "mem" true (Collection.mem db c (oid 7));
           Alcotest.(check bool) "not mem" false (Collection.mem db c (oid 21));
           (* members come back sorted regardless of insert order *)
           Alcotest.(check (list int)) "sorted members"
             (List.init 20 (fun i -> i + 1))
             (List.map Oid.to_int (Collection.members db c));
           Alcotest.(check (list int)) "range"
             [ 5; 6; 7 ]
             (List.map Oid.to_int (Collection.range db c ~lo:(oid 5) ~hi:(oid 7)));
           Alcotest.(check bool) "remove" true (Collection.remove db c (oid 7));
           Alcotest.(check bool) "remove absent" false (Collection.remove db c (oid 7));
           Alcotest.(check int) "cardinal after remove" 19 (Collection.cardinal db c))))

let test_collection_abort_rolls_back_membership () =
  let db =
    with_db (fun db ->
        atomically db (fun () ->
          let c = Collection.create db ~name:"c" () in
          ignore (Collection.add db c (oid 1)));
        (* A transaction adds members then aborts. *)
        ignore
          (Asset_models.Atomic.run db (fun () ->
               let c = Option.get (Collection.find db ~name:"c" ()) in
               ignore (Collection.add db c (oid 2));
               ignore (Collection.add db c (oid 3));
               failwith "abort"));
        atomically db (fun () ->
          let c = Option.get (Collection.find db ~name:"c" ()) in
          Alcotest.(check (list int)) "only the committed member" [ 1 ]
            (List.map Oid.to_int (Collection.members db c))))
  in
  ignore db

let test_collection_scan_cursor_stability () =
  (* A scan with cursor stability lets a writer update records behind
     the cursor before the scanner commits. *)
  let writer_ran_early = ref false in
  ignore
    (with_db (fun db ->
         atomically db (fun () ->
           let c = Collection.create db ~name:"rel" () in
           List.iter
             (fun i ->
               E.write db (oid i) (vi 0);
               ignore (Collection.add db c (oid i)))
             [ 1; 2; 3; 4 ]);
         let scanner =
           E.initiate db (fun () ->
               let c = Option.get (Collection.find db ~name:"rel" ()) in
               Collection.scan ~stability:`Cursor db c ~f:(fun _ _ -> Sched.yield ()))
         in
         let writer =
           E.initiate db (fun () ->
               E.write db (oid 1) (vi 99);
               writer_ran_early := not (E.is_terminated db scanner))
         in
         ignore (E.begin_ db scanner);
         Sched.yield ();
         ignore (E.begin_ db writer);
         ignore (E.commit db writer);
         ignore (E.commit db scanner)));
  Alcotest.(check bool) "writer proceeded during scan" true !writer_ran_early

let test_collection_concurrent_adders_serialize () =
  (* Two transactions adding to the same collection contend on the
     chunk objects; both must commit (possibly after waiting) and both
     members must be present. *)
  ignore
    (with_db (fun db ->
         atomically db (fun () ->
           ignore (Collection.create db ~name:"c" ()));
         let adder n =
           E.initiate db (fun () ->
               let c = Option.get (Collection.find db ~name:"c" ()) in
               E.write db (oid n) (vi n);
               ignore (Collection.add db c (oid n)))
         in
         let t1 = adder 1 and t2 = adder 2 in
         ignore (E.begin_ db t1);
         ignore (E.begin_ db t2);
         E.spawn db ~label:"c1" (fun () -> ignore (E.commit db t1));
         E.spawn db ~label:"c2" (fun () -> ignore (E.commit db t2));
         E.await_terminated db [ t1; t2 ];
         let committed = List.filter (fun t -> E.is_committed db t) [ t1; t2 ] in
         (* Under 2PL both serialize; a deadlock victim is possible but
            at least one commits. *)
         Alcotest.(check bool) "at least one committed" true (List.length committed >= 1);
         atomically db (fun () ->
           let c = Option.get (Collection.find db ~name:"c" ()) in
           Alcotest.(check int) "cardinal matches commits" (List.length committed)
             (Collection.cardinal db c))))

let prop_collection_matches_set_model =
  QCheck2.Test.make ~name:"collection matches set model" ~count:60
    QCheck2.Gen.(
      triple (int_range 1 8)
        (list_size (int_range 0 60)
           (oneof
              [
                map (fun k -> `Add k) (int_range 1 30);
                map (fun k -> `Remove k) (int_range 1 30);
              ]))
        (* Range bounds reach past the member domain 1..30 on both
           sides, and [lo > hi] (an empty range) is drawn about half
           the time; the two fixed pairs pin both cases. *)
        (map
           (fun ranges -> (31, 0) :: (0, 31) :: ranges)
           (list_size (int_range 1 4) (pair (int_range (-5) 35) (int_range (-5) 35)))))
    (fun (chunk_capacity, ops, ranges) ->
      let result = ref true in
      ignore
        (with_db (fun db ->
             atomically db (fun () ->
               let c = Collection.create db ~name:"m" ~chunk_capacity () in
               let model = Hashtbl.create 16 in
               List.iter
                 (fun op ->
                   match op with
                   | `Add k ->
                       let added = Collection.add db c (oid k) in
                       let expected = not (Hashtbl.mem model k) in
                       Hashtbl.replace model k ();
                       if added <> expected then result := false
                   | `Remove k ->
                       let removed = Collection.remove db c (oid k) in
                       let expected = Hashtbl.mem model k in
                       Hashtbl.remove model k;
                       if removed <> expected then result := false)
                 ops;
               let expected_members =
                 Hashtbl.fold (fun k () acc -> k :: acc) model [] |> List.sort compare
               in
               if List.map Oid.to_int (Collection.members db c) <> expected_members then
                 result := false;
               if Collection.cardinal db c <> List.length expected_members then
                 result := false;
               List.iter
                 (fun (lo, hi) ->
                   let expected = List.filter (fun k -> lo <= k && k <= hi) expected_members in
                   let got = Collection.range db c ~lo:(oid lo) ~hi:(oid hi) in
                   if List.map Oid.to_int got <> expected then result := false)
                 ranges)));
      !result)

let () =
  Alcotest.run "asset_collection"
    [
      ( "collection",
        [
          Alcotest.test_case "create and find" `Quick test_collection_create_and_find;
          Alcotest.test_case "duplicate name" `Quick test_collection_duplicate_name_rejected;
          Alcotest.test_case "membership" `Quick test_collection_membership;
          Alcotest.test_case "abort rolls back" `Quick test_collection_abort_rolls_back_membership;
          Alcotest.test_case "cursor-stability scan" `Quick test_collection_scan_cursor_stability;
          Alcotest.test_case "concurrent adders" `Quick test_collection_concurrent_adders_serialize;
          QCheck_alcotest.to_alcotest prop_collection_matches_set_model;
        ] );
    ]
