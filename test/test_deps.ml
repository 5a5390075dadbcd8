(* Tests for the transaction dependency graph: edge management, the
   cycle-prevention check of form_dependency, GC groups, and the
   extension types (BD, EXC). *)

module Tid = Asset_util.Id.Tid
module Dt = Asset_deps.Dep_type
module Dg = Asset_deps.Dep_graph

let tid = Tid.of_int

let test_dep_type_classification () =
  Alcotest.(check bool) "CD blocks commit" true (Dt.blocks_commit Dt.CD);
  Alcotest.(check bool) "AD blocks commit" true (Dt.blocks_commit Dt.AD);
  Alcotest.(check bool) "GC does not" false (Dt.blocks_commit Dt.GC);
  Alcotest.(check bool) "CD is core" false (Dt.is_extension Dt.CD);
  Alcotest.(check bool) "BD is extension" true (Dt.is_extension Dt.BD);
  Alcotest.(check bool) "EXC is extension" true (Dt.is_extension Dt.EXC)

let test_add_and_query () =
  let g = Dg.create () in
  Dg.add g Dt.CD ~master:(tid 1) ~dependent:(tid 2);
  Alcotest.(check int) "edge count" 1 (Dg.edge_count g);
  Alcotest.(check bool) "mem" true (Dg.mem g Dt.CD ~master:(tid 1) ~dependent:(tid 2));
  Alcotest.(check int) "outgoing of dependent" 1 (List.length (Dg.outgoing g (tid 2)));
  Alcotest.(check int) "incoming of master" 1 (List.length (Dg.incoming g (tid 1)));
  Alcotest.(check int) "nothing for strangers" 0 (List.length (Dg.outgoing g (tid 3)))

let test_duplicate_edges_collapse () =
  let g = Dg.create () in
  Dg.add g Dt.AD ~master:(tid 1) ~dependent:(tid 2);
  Dg.add g Dt.AD ~master:(tid 1) ~dependent:(tid 2);
  Alcotest.(check int) "one edge" 1 (Dg.edge_count g);
  (* A different type between the same pair is a separate edge. *)
  Dg.add g Dt.CD ~master:(tid 1) ~dependent:(tid 2);
  Alcotest.(check int) "two edges" 2 (Dg.edge_count g)

let test_self_dependency_rejected () =
  let g = Dg.create () in
  Alcotest.check_raises "self dep" (Invalid_argument "Dep_graph.add: self dependency") (fun () ->
      Dg.add g Dt.CD ~master:(tid 1) ~dependent:(tid 1))

let test_cd_cycle_rejected () =
  let g = Dg.create () in
  Dg.add g Dt.CD ~master:(tid 1) ~dependent:(tid 2);
  (* 2 waits for 1; adding 1 waits for 2 closes a commit-wait cycle. *)
  (match Dg.add g Dt.CD ~master:(tid 2) ~dependent:(tid 1) with
  | exception Dg.Cycle_rejected _ -> ()
  | () -> Alcotest.fail "expected cycle rejection");
  Alcotest.(check int) "edge not added" 1 (Dg.edge_count g)

let test_ad_cd_mixed_cycle_rejected () =
  let g = Dg.create () in
  Dg.add g Dt.AD ~master:(tid 1) ~dependent:(tid 2);
  Dg.add g Dt.CD ~master:(tid 2) ~dependent:(tid 3);
  match Dg.add g Dt.AD ~master:(tid 3) ~dependent:(tid 1) with
  | exception Dg.Cycle_rejected _ -> ()
  | () -> Alcotest.fail "expected 3-cycle rejection"

let test_gc_cycle_allowed () =
  (* GC edges do not form commit-wait cycles: a GC "cycle" is just a
     commit group. *)
  let g = Dg.create () in
  Dg.add g Dt.GC ~master:(tid 1) ~dependent:(tid 2);
  Dg.add g Dt.GC ~master:(tid 2) ~dependent:(tid 1);
  Alcotest.(check int) "both edges" 2 (Dg.edge_count g)

let test_gc_group_closure () =
  let g = Dg.create () in
  Dg.add g Dt.GC ~master:(tid 1) ~dependent:(tid 2);
  Dg.add g Dt.GC ~master:(tid 2) ~dependent:(tid 3);
  Dg.add g Dt.GC ~master:(tid 5) ~dependent:(tid 6);
  Alcotest.(check (list int)) "closure of 1" [ 1; 2; 3 ]
    (List.map Tid.to_int (Dg.gc_group g (tid 1)));
  Alcotest.(check (list int)) "closure of 3" [ 1; 2; 3 ]
    (List.map Tid.to_int (Dg.gc_group g (tid 3)));
  (* Each GC edge is crossed from either end: from its master 1 the
     walk reaches dependent 2, from dependent 2 it reaches master 1. *)
  Alcotest.(check (list int)) "closure of 2" [ 1; 2; 3 ]
    (List.map Tid.to_int (Dg.gc_group g (tid 2)));
  Alcotest.(check (list int)) "one edge from its dependent" [ 5; 6 ]
    (List.map Tid.to_int (Dg.gc_group g (tid 6)));
  (* Only GC edges join a group. *)
  Dg.add g Dt.CD ~master:(tid 6) ~dependent:(tid 7);
  Dg.add g Dt.AD ~master:(tid 8) ~dependent:(tid 5);
  Alcotest.(check (list int)) "disjoint group, other edge types left out" [ 5; 6 ]
    (List.map Tid.to_int (Dg.gc_group g (tid 5)));
  Alcotest.(check (list int)) "singleton" [ 9 ] (List.map Tid.to_int (Dg.gc_group g (tid 9)))

let test_remove_involving () =
  let g = Dg.create () in
  Dg.add g Dt.CD ~master:(tid 1) ~dependent:(tid 2);
  Dg.add g Dt.AD ~master:(tid 2) ~dependent:(tid 3);
  Dg.add g Dt.GC ~master:(tid 3) ~dependent:(tid 4);
  Dg.remove_involving g (tid 2);
  Alcotest.(check int) "only 3-4 left" 1 (Dg.edge_count g);
  Alcotest.(check int) "t1 clean" 0 (List.length (Dg.incoming g (tid 1)));
  Alcotest.(check int) "t3 keeps the GC edge" 1 (List.length (Dg.incoming g (tid 3)))

let test_exc_partners () =
  let g = Dg.create () in
  Dg.add g Dt.EXC ~master:(tid 1) ~dependent:(tid 2);
  Dg.add g Dt.EXC ~master:(tid 3) ~dependent:(tid 1);
  Alcotest.(check (list int)) "partners of 1 (both directions)" [ 2; 3 ]
    (List.map Tid.to_int (Dg.exc_partners g (tid 1)));
  Alcotest.(check (list int)) "partners of 2" [ 1 ]
    (List.map Tid.to_int (Dg.exc_partners g (tid 2)))

let test_bd_masters () =
  let g = Dg.create () in
  Dg.add g Dt.BD ~master:(tid 1) ~dependent:(tid 3);
  Dg.add g Dt.BD ~master:(tid 2) ~dependent:(tid 3);
  Dg.add g Dt.CD ~master:(tid 4) ~dependent:(tid 3);
  Alcotest.(check (list int)) "BD masters only" [ 1; 2 ]
    (List.sort Int.compare (List.map Tid.to_int (Dg.bd_masters g (tid 3))))

let test_stats_and_pp () =
  let g = Dg.create () in
  Dg.add g Dt.CD ~master:(tid 1) ~dependent:(tid 2);
  (try Dg.add g Dt.CD ~master:(tid 2) ~dependent:(tid 1) with Dg.Cycle_rejected _ -> ());
  let stats = Dg.stats g in
  Alcotest.(check int) "formed" 1 (List.assoc "formed" stats);
  Alcotest.(check int) "rejected" 1 (List.assoc "rejected" stats);
  Alcotest.(check int) "live" 1 (List.assoc "live_edges" stats);
  let s = Format.asprintf "%a" Dg.pp g in
  Alcotest.(check bool) "pp nonempty" true (String.length s > 6)

(* Property: the cycle checker is exactly "no commit-wait cycles": any
   sequence of CD/AD adds that all succeed leaves an acyclic CD/AD
   subgraph (verified by topological sort). *)
let prop_accepted_edges_acyclic =
  QCheck2.Test.make ~name:"accepted CD/AD edges stay acyclic" ~count:300
    QCheck2.Gen.(list_size (int_range 1 30) (tup3 (int_range 1 6) (int_range 1 6) bool))
    (fun edges ->
      let g = Dg.create () in
      List.iter
        (fun (a, b, ad) ->
          if a <> b then
            try Dg.add g (if ad then Dt.AD else Dt.CD) ~master:(tid a) ~dependent:(tid b)
            with Dg.Cycle_rejected _ -> ())
        edges;
      (* Kahn's algorithm over the commit-wait subgraph. *)
      let nodes = List.init 6 (fun i -> tid (i + 1)) in
      let edges =
        List.concat_map
          (fun n ->
            Dg.outgoing g n
            |> List.filter (fun e -> Dt.blocks_commit e.Dg.dtype)
            |> List.map (fun e -> (e.Dg.dependent, e.Dg.master)))
          nodes
      in
      let in_deg = Hashtbl.create 8 in
      List.iter (fun n -> Hashtbl.replace in_deg n 0) nodes;
      List.iter (fun (_, m) -> Hashtbl.replace in_deg m (Hashtbl.find in_deg m + 1)) edges;
      let removed = ref 0 in
      let rec loop () =
        match
          List.find_opt
            (fun n -> Hashtbl.mem in_deg n && Hashtbl.find in_deg n = 0)
            nodes
        with
        | None -> ()
        | Some n ->
            Hashtbl.remove in_deg n;
            incr removed;
            List.iter
              (fun (d, m) ->
                if Tid.equal d n && Hashtbl.mem in_deg m then
                  Hashtbl.replace in_deg m (Hashtbl.find in_deg m - 1))
              edges;
            loop ()
      in
      loop ();
      !removed = List.length nodes)

(* Property: [remove_involving] leaves exactly the edges that do not
   touch the removed tids, seen from every endpoint, with [edge_count]
   and [all_edges] agreeing. *)
let prop_remove_involving_matches_filter =
  let types = [| Dt.GC; Dt.BD; Dt.EXC |] in
  QCheck2.Test.make ~name:"remove_involving keeps exactly the untouched edges" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 25) (tup3 (int_range 0 2) (int_range 1 6) (int_range 1 6)))
        (list_size (int_range 1 4) (int_range 1 6)))
    (fun (edges, removed) ->
      let g = Dg.create () in
      List.iter
        (fun (ty, a, b) -> if a <> b then Dg.add g types.(ty) ~master:(tid a) ~dependent:(tid b))
        edges;
      let key e = (Dt.to_string e.Dg.dtype, Tid.to_int e.Dg.master, Tid.to_int e.Dg.dependent) in
      let kept e =
        not (List.mem (Tid.to_int e.Dg.master) removed || List.mem (Tid.to_int e.Dg.dependent) removed)
      in
      let expected = List.sort compare (List.map key (List.filter kept (Dg.all_edges g))) in
      List.iter (fun r -> Dg.remove_involving g (tid r)) removed;
      let nodes = List.init 6 (fun i -> tid (i + 1)) in
      let from_ends f = List.sort compare (List.map key (List.concat_map f nodes)) in
      Dg.edge_count g = List.length expected
      && List.sort compare (List.map key (Dg.all_edges g)) = expected
      && from_ends (Dg.incoming g) = expected
      && from_ends (Dg.outgoing g) = expected)

(* Property: gc_group is symmetric — b ∈ group(a) iff a ∈ group(b). *)
let prop_gc_group_symmetric =
  QCheck2.Test.make ~name:"gc_group is symmetric" ~count:300
    QCheck2.Gen.(list_size (int_range 1 15) (tup2 (int_range 1 6) (int_range 1 6)))
    (fun pairs ->
      let g = Dg.create () in
      List.iter
        (fun (a, b) -> if a <> b then Dg.add g Dt.GC ~master:(tid a) ~dependent:(tid b))
        pairs;
      List.for_all
        (fun a ->
          List.for_all
            (fun b ->
              let a_in_b = List.exists (Tid.equal (tid a)) (Dg.gc_group g (tid b)) in
              let b_in_a = List.exists (Tid.equal (tid b)) (Dg.gc_group g (tid a)) in
              a_in_b = b_in_a)
            (List.init 6 (fun i -> i + 1)))
        (List.init 6 (fun i -> i + 1)))

let () =
  Alcotest.run "asset_deps"
    [
      ( "types",
        [ Alcotest.test_case "classification" `Quick test_dep_type_classification ] );
      ( "edges",
        [
          Alcotest.test_case "add and query" `Quick test_add_and_query;
          Alcotest.test_case "duplicates collapse" `Quick test_duplicate_edges_collapse;
          Alcotest.test_case "self dependency rejected" `Quick test_self_dependency_rejected;
          Alcotest.test_case "remove involving" `Quick test_remove_involving;
          QCheck_alcotest.to_alcotest prop_remove_involving_matches_filter;
          Alcotest.test_case "stats and pp" `Quick test_stats_and_pp;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "CD cycle rejected" `Quick test_cd_cycle_rejected;
          Alcotest.test_case "AD/CD mixed cycle rejected" `Quick test_ad_cd_mixed_cycle_rejected;
          Alcotest.test_case "GC cycle allowed" `Quick test_gc_cycle_allowed;
          QCheck_alcotest.to_alcotest prop_accepted_edges_acyclic;
        ] );
      ( "gc",
        [
          Alcotest.test_case "group closure" `Quick test_gc_group_closure;
          QCheck_alcotest.to_alcotest prop_gc_group_symmetric;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "exc partners" `Quick test_exc_partners;
          Alcotest.test_case "bd masters" `Quick test_bd_masters;
        ] );
    ]
