(* Tests for the extended-transaction-model library (section 3): each
   model's success path, failure path, and the properties the paper
   states for it. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
open Asset_models

let oid = Oid.of_int
let vi = Value.of_int
let with_db ?(objects = 16) program = R.with_fresh_db ~objects program
let geti db o = Value.to_int (Store.read_exn (E.store db) (oid o))

(* ------------------------------------------------------------------ *)
(* Atomic (3.1.1)                                                      *)

let test_atomic_commit () =
  let db =
    with_db (fun db ->
        match Atomic.run db (fun () -> E.write db (oid 1) (vi 7)) with
        | `Committed -> ()
        | _ -> Alcotest.fail "expected commit")
  in
  Alcotest.(check int) "persisted" 7 (geti db 1)

let test_atomic_abort_on_exception () =
  let db =
    with_db (fun db ->
        match
          Atomic.run db (fun () ->
              E.write db (oid 1) (vi 7);
              failwith "no")
        with
        | `Aborted -> ()
        | _ -> Alcotest.fail "expected abort")
  in
  Alcotest.(check int) "rolled back" 0 (geti db 1)

(* ------------------------------------------------------------------ *)
(* Distributed (3.1.2)                                                 *)

let test_distributed_commit_all () =
  let db =
    with_db (fun db ->
        let r =
          Distributed.run db
            [
              (fun () -> E.write db (oid 1) (vi 1));
              (fun () -> E.write db (oid 2) (vi 2));
              (fun () -> E.write db (oid 3) (vi 3));
            ]
        in
        Alcotest.(check bool) "committed" true (r = `Committed))
  in
  Alcotest.(check (list int)) "all effects" [ 1; 2; 3 ] [ geti db 1; geti db 2; geti db 3 ]

let test_distributed_abort_all () =
  let db =
    with_db (fun db ->
        let r =
          Distributed.run db
            [
              (fun () -> E.write db (oid 1) (vi 1));
              (fun () -> failwith "component fails");
              (fun () -> E.write db (oid 3) (vi 3));
            ]
        in
        Alcotest.(check bool) "aborted" true (r = `Aborted))
  in
  Alcotest.(check (list int)) "no effects" [ 0; 0; 0 ] [ geti db 1; geti db 2; geti db 3 ]

let test_distributed_empty_and_singleton () =
  ignore
    (with_db (fun db ->
         Alcotest.(check bool) "empty" true (Distributed.run db [] = `Committed);
         Alcotest.(check bool) "singleton" true
           (Distributed.run db [ (fun () -> E.write db (oid 1) (vi 1)) ] = `Committed)))

(* ------------------------------------------------------------------ *)
(* Contingent (3.1.3)                                                  *)

let test_contingent_first_wins () =
  ignore
    (with_db (fun db ->
         match
           Contingent.run db
             [ (fun () -> E.write db (oid 1) (vi 1)); (fun () -> E.write db (oid 2) (vi 2)) ]
         with
         | `Committed 0 -> ()
         | _ -> Alcotest.fail "expected alternative 0"))

let test_contingent_fallback_order () =
  let db =
    with_db (fun db ->
        match
          Contingent.run db
            [
              (fun () -> failwith "alt0");
              (fun () -> failwith "alt1");
              (fun () -> E.write db (oid 3) (vi 3));
            ]
        with
        | `Committed 2 -> ()
        | _ -> Alcotest.fail "expected alternative 2")
  in
  Alcotest.(check int) "only alt2's effect" 3 (geti db 3);
  Alcotest.(check int) "alt0 rolled back" 0 (geti db 1)

let test_contingent_all_fail () =
  ignore
    (with_db (fun db ->
         match Contingent.run db [ (fun () -> failwith "a"); (fun () -> failwith "b") ] with
         | `All_aborted -> ()
         | _ -> Alcotest.fail "expected all aborted"))

let test_contingent_declarative_exclusion () =
  (* The EXC-based variant: committing one alternative force-aborts the
     others, and at most one effect reaches the store. *)
  let db =
    with_db (fun db ->
        match
          Contingent.run_declarative db
            [
              (fun () -> failwith "alt0");
              (fun () -> E.write db (oid 2) (vi 2));
              (fun () -> E.write db (oid 3) (vi 3));
            ]
        with
        | `Committed 1 -> ()
        | _ -> Alcotest.fail "expected alternative 1")
  in
  Alcotest.(check int) "winner's effect" 2 (geti db 2);
  Alcotest.(check int) "loser never ran to commit" 0 (geti db 3)

(* ------------------------------------------------------------------ *)
(* Nested (3.1.4)                                                      *)

let test_nested_success_delegates_up () =
  let db =
    with_db (fun db ->
        let r =
          Nested.root db (fun () ->
              Nested.sub_exn db (fun () -> E.write db (oid 1) (vi 1));
              Nested.sub_exn db (fun () -> E.write db (oid 2) (vi 2)))
        in
        Alcotest.(check bool) "committed" true (r = `Committed))
  in
  Alcotest.(check int) "child 1" 1 (geti db 1);
  Alcotest.(check int) "child 2" 2 (geti db 2)

let test_nested_child_failure_aborts_parent () =
  let db =
    with_db (fun db ->
        let r =
          Nested.root db (fun () ->
              Nested.sub_exn db (fun () -> E.write db (oid 1) (vi 1));
              Nested.sub_exn db (fun () -> failwith "child dies"))
        in
        Alcotest.(check bool) "aborted" true (r = `Aborted))
  in
  Alcotest.(check int) "first child's delegated work undone" 0 (geti db 1)

let test_nested_report_policy_parent_survives () =
  let db =
    with_db (fun db ->
        let r =
          Nested.root db (fun () ->
              let ok = Nested.sub db (fun () -> failwith "child dies") in
              Alcotest.(check bool) "failure reported" false ok;
              E.write db (oid 2) (vi 2))
        in
        Alcotest.(check bool) "parent commits" true (r = `Committed))
  in
  Alcotest.(check int) "parent's own work" 2 (geti db 2)

let test_nested_child_sees_parent_objects () =
  (* The child reads an object the parent currently holds a write lock
     on — possible only through the parent's permit. *)
  let db =
    with_db (fun db ->
        let r =
          Nested.root db (fun () ->
              E.write db (oid 1) (vi 5);
              Nested.sub_exn db (fun () ->
                  let v = E.read_exn db (oid 1) in
                  E.write db (oid 2) v))
        in
        Alcotest.(check bool) "committed" true (r = `Committed))
  in
  Alcotest.(check int) "child read parent's uncommitted value" 5 (geti db 2)

let test_nested_three_levels () =
  let db =
    with_db (fun db ->
        let r =
          Nested.root db (fun () ->
              Nested.sub_exn db (fun () ->
                  E.write db (oid 1) (vi 1);
                  Nested.sub_exn db (fun () -> E.write db (oid 2) (vi 2))))
        in
        Alcotest.(check bool) "committed" true (r = `Committed))
  in
  Alcotest.(check int) "level 2" 1 (geti db 1);
  Alcotest.(check int) "level 3" 2 (geti db 2)

let test_nested_abort_containment_leaves_prior_siblings () =
  (* A failed sibling under `Report does not undo the earlier sibling's
     delegated effects if the parent goes on to commit. *)
  let db =
    with_db (fun db ->
        let r =
          Nested.root db (fun () ->
              Nested.sub_exn db (fun () -> E.write db (oid 1) (vi 1));
              ignore (Nested.sub db (fun () -> E.write db (oid 2) (vi 2); failwith "dies")))
        in
        Alcotest.(check bool) "committed" true (r = `Committed))
  in
  Alcotest.(check int) "sibling 1 committed with parent" 1 (geti db 1);
  Alcotest.(check int) "failed sibling undone" 0 (geti db 2)

let test_nested_sub_outside_transaction_rejected () =
  ignore
    (with_db (fun db ->
         match Nested.sub db (fun () -> ()) with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection"))

(* ------------------------------------------------------------------ *)
(* Split / join (3.1.5)                                                *)

let test_split_independent_outcomes () =
  let db =
    with_db (fun db ->
        let split_tid = ref Tid.null in
        let t =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              E.write db (oid 2) (vi 2);
              match Split_join.split_idle ~objs:[ oid 1 ] db with
              | Some s -> split_tid := s
              | None -> Alcotest.fail "split failed")
        in
        ignore (E.begin_ db t);
        ignore (E.wait db t);
        (* The splitter aborts; the split transaction commits its part. *)
        ignore (E.abort db t);
        Alcotest.(check bool) "split commits" true (E.commit db !split_tid))
  in
  Alcotest.(check int) "split part survives" 1 (geti db 1);
  Alcotest.(check int) "splitter part undone" 0 (geti db 2)

let test_split_runs_new_work () =
  let db =
    with_db (fun db ->
        let split_tid = ref Tid.null in
        let t =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              match Split_join.split ~objs:[ oid 1 ] db (fun () -> E.write db (oid 3) (vi 3)) with
              | Some s -> split_tid := s
              | None -> Alcotest.fail "split failed")
        in
        ignore (E.begin_ db t);
        ignore (E.wait db t);
        ignore (E.commit db t);
        Alcotest.(check bool) "split commits" true (E.commit db !split_tid))
  in
  Alcotest.(check int) "delegated object" 1 (geti db 1);
  Alcotest.(check int) "split's own work" 3 (geti db 3)

let test_join_merges_into_target () =
  let db =
    with_db (fun db ->
        let s_tid = ref Tid.null in
        let t =
          E.initiate db (fun () ->
              E.write db (oid 1) (vi 1);
              match Split_join.split_idle ~objs:[ oid 1 ] db with
              | Some s -> s_tid := s
              | None -> Alcotest.fail "split failed")
        in
        ignore (E.begin_ db t);
        ignore (E.wait db t);
        (* Join the split transaction back into t. *)
        Split_join.join db !s_tid t;
        (* Now t is responsible again: abort undoes everything. *)
        ignore (E.abort db t))
  in
  Alcotest.(check int) "rejoined work undone with t" 0 (geti db 1)

(* ------------------------------------------------------------------ *)
(* Saga (3.1.6)                                                        *)

let saga_step db ~n ?(fails = false) () =
  Saga.step
    ~label:(string_of_int n)
    ~compensate:(fun () -> E.write db (oid n) (vi 0))
    (fun () ->
      if fails then failwith "step fails";
      E.write db (oid n) (vi n))

let test_saga_commit_in_order () =
  let db =
    with_db (fun db ->
        let r =
          Saga.run db
            [
              saga_step db ~n:1 ();
              saga_step db ~n:2 ();
              Saga.step ~label:"last" (fun () -> E.write db (oid 3) (vi 3));
            ]
        in
        Alcotest.(check bool) "committed" true (Saga.committed r))
  in
  Alcotest.(check (list int)) "effects" [ 1; 2; 3 ] [ geti db 1; geti db 2; geti db 3 ]

let test_saga_compensates_in_reverse () =
  let order = ref [] in
  let step db n =
    Saga.step ~label:(string_of_int n)
      ~compensate:(fun () ->
        order := n :: !order;
        E.write db (oid n) (vi 0))
      (fun () -> E.write db (oid n) (vi n))
  in
  let db =
    with_db (fun db ->
        match
          Saga.run db
            [ step db 1; step db 2; step db 3; saga_step db ~n:4 ~fails:true () ]
        with
        | Saga.Rolled_back { failed_step; compensated } ->
            Alcotest.(check int) "failed at 3" 3 failed_step;
            Alcotest.(check int) "three compensated" 3 compensated
        | Saga.Committed -> Alcotest.fail "expected rollback")
  in
  Alcotest.(check (list int)) "reverse order ct3 ct2 ct1" [ 3; 2; 1 ] (List.rev !order);
  Alcotest.(check (list int)) "all compensated" [ 0; 0; 0 ]
    [ geti db 1; geti db 2; geti db 3 ]

let test_saga_component_commits_are_visible_early () =
  (* Isolation is per component: after t1 commits, another transaction
     can see its effect even though the saga is still running. *)
  ignore
    (with_db (fun db ->
         let observed = ref (-1) in
         let r =
           Saga.run db
             [
               Saga.step ~label:"t1" ~compensate:(fun () -> ())
                 (fun () -> E.write db (oid 1) (vi 10));
               Saga.step ~label:"t2"
                 (fun () ->
                   (* A different transaction in the middle of the saga *)
                   observed := Value.to_int (E.read_exn db (oid 1)));
             ]
         in
         Alcotest.(check bool) "saga committed" true (Saga.committed r);
         Alcotest.(check int) "partial result visible" 10 !observed))

let test_saga_first_step_fails_no_compensation () =
  ignore
    (with_db (fun db ->
         match Saga.run db [ saga_step db ~n:1 ~fails:true (); saga_step db ~n:2 () ] with
         | Saga.Rolled_back { failed_step = 0; compensated = 0 } -> ()
         | _ -> Alcotest.fail "expected failure at step 0 with nothing to compensate"))

let test_saga_rejects_missing_compensation () =
  ignore
    (with_db (fun db ->
         match
           Saga.run db
             [ Saga.step ~label:"no-comp" (fun () -> ()); saga_step db ~n:2 () ]
         with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection"))

let test_saga_compensation_retried () =
  ignore
    (with_db (fun db ->
         let attempts = ref 0 in
         let flaky_comp () =
           incr attempts;
           if !attempts < 3 then failwith "compensation flaky"
         in
         match
           Saga.run db
             [
               Saga.step ~label:"t1" ~compensate:flaky_comp (fun () -> ());
               saga_step db ~n:2 ~fails:true ();
             ]
         with
         | Saga.Rolled_back { compensated = 1; _ } ->
             Alcotest.(check int) "retried until commit" 3 !attempts
         | _ -> Alcotest.fail "expected rollback"))

(* Property: for a saga failing at step k of n, exactly the first k
   steps' effects are compensated and none of the later steps ran. *)
let prop_saga_failure_leaves_clean_state =
  QCheck2.Test.make ~name:"saga failure leaves clean state" ~count:100
    QCheck2.Gen.(pair (int_range 1 8) (int_range 0 8))
    (fun (n, fail_at) ->
      let fail_at = min fail_at n in
      let db =
        with_db ~objects:16 (fun db ->
            let steps =
              List.init (n + 1) (fun i ->
                  if i = fail_at then saga_step db ~n:(i + 1) ~fails:true ()
                  else saga_step db ~n:(i + 1) ())
            in
            match Saga.run db steps with
            | Saga.Rolled_back { failed_step; compensated } ->
                assert (failed_step = fail_at);
                assert (compensated = fail_at)
            | Saga.Committed -> assert false)
      in
      List.for_all (fun i -> geti db (i + 1) = 0) (List.init (n + 1) Fun.id))

(* ------------------------------------------------------------------ *)
(* Chained transactions                                                *)

let test_chained_commits_links_and_carries () =
  let observed_between = ref (-1) in
  let db =
    with_db (fun db ->
        let carry _ = [ oid 1 ] in
        let r =
          Chained.run db ~carry
            [
              (fun () ->
                E.write db (oid 1) (vi 10);
                (* Non-carried work commits at the link boundary. *)
                E.write db (oid 2) (vi 2));
              (fun () ->
                (* The carried object arrives locked, with its
                   uncommitted value visible to this link only. *)
                observed_between := Value.to_int (E.read_exn db (oid 1));
                E.write db (oid 1) (vi 20));
              (fun () -> E.write db (oid 3) (vi 3));
            ]
        in
        Alcotest.(check bool) "chain committed" true (Chained.committed r))
  in
  Alcotest.(check int) "link 2 saw the carried value" 10 !observed_between;
  Alcotest.(check int) "final carried value" 20 (geti db 1);
  Alcotest.(check int) "link 1 side effect" 2 (geti db 2);
  Alcotest.(check int) "link 3 side effect" 3 (geti db 3)

let test_chained_carried_state_invisible_between_links () =
  (* Another transaction trying to read the carried object between
     links must wait until the chain ends — delegation keeps the lock
     alive across the commit boundary. *)
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let intruder =
           E.initiate db (fun () ->
               let v = E.read_exn db (oid 1) in
               order := Printf.sprintf "intruder-saw-%d" (Value.to_int v) :: !order)
         in
         let chain_done = ref false in
         E.spawn db ~label:"chain" (fun () ->
             let r =
               Chained.run db
                 ~carry:(fun _ -> [ oid 1 ])
                 [
                   (fun () ->
                     E.write db (oid 1) (vi 5);
                     Sched.yield ());
                   (fun () ->
                     Sched.yield ();
                     E.write db (oid 1) (vi 6));
                 ]
             in
             assert (Chained.committed r);
             chain_done := true;
             order := "chain-done" :: !order);
         Sched.yield ();
         ignore (E.begin_ db intruder);
         ignore (E.commit db intruder);
         Asset_sched.Scheduler.wait_until (fun () -> !chain_done)));
  Alcotest.(check (list string)) "intruder waited for the whole chain"
    [ "chain-done"; "intruder-saw-6" ] (List.rev !order)

let test_chained_broken_link_rolls_back_carry_only () =
  let db =
    with_db (fun db ->
        let r =
          Chained.run db
            ~carry:(fun _ -> [ oid 1 ])
            [
              (fun () ->
                E.write db (oid 1) (vi 10);
                E.write db (oid 2) (vi 2));
              (fun () ->
                E.write db (oid 1) (vi 20);
                failwith "link 2 dies");
              (fun () -> E.write db (oid 3) (vi 3));
            ]
        in
        match r with
        | Chained.Broken { failed_link } -> Alcotest.(check int) "broke at link 1" 1 failed_link
        | Chained.Committed -> Alcotest.fail "expected broken chain")
  in
  Alcotest.(check int) "carried state fully rolled back" 0 (geti db 1);
  Alcotest.(check int) "link 1's committed side effect kept" 2 (geti db 2);
  Alcotest.(check int) "later links never ran" 0 (geti db 3)

let test_chained_empty_and_singleton () =
  ignore
    (with_db (fun db ->
         Alcotest.(check bool) "empty chain" true
           (Chained.committed (Chained.run db ~carry:(fun _ -> []) []));
         let r =
           Chained.run db ~carry:(fun _ -> []) [ (fun () -> E.write db (oid 1) (vi 1)) ]
         in
         Alcotest.(check bool) "single link" true (Chained.committed r)))

(* ------------------------------------------------------------------ *)
(* Cooperating transactions (3.2.1)                                    *)

let test_coop_interleaved_edits () =
  let db =
    with_db (fun db ->
        let ti =
          E.initiate db (fun () ->
              E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) 1);
              Sched.yield ();
              E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) 1))
        in
        let tj =
          E.initiate db (fun () ->
              E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) 10);
              Sched.yield ();
              E.modify db (oid 1) (fun v -> Value.incr_int (Option.get v) 10))
        in
        Coop.pair db ~ti ~tj ~objs:[ oid 1 ] ~coupling:`Group;
        ignore (E.begin_ db ti);
        ignore (E.begin_ db tj);
        Alcotest.(check bool) "group commits" true (E.commit db ti))
  in
  Alcotest.(check int) "all four increments" 22 (geti db 1)

let test_coop_commit_ordered () =
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let ti = E.initiate db (fun () -> Sched.yield ()) in
         let tj = E.initiate db (fun () -> ()) in
         Coop.allow db ~ti ~tj ~objs:[ oid 1 ] ~coupling:`Commit_ordered;
         ignore (E.begin_ db ti);
         ignore (E.begin_ db tj);
         E.spawn db ~label:"commit-tj" (fun () ->
             ignore (E.commit db tj);
             order := "tj" :: !order);
         ignore (E.commit db ti);
         order := "ti" :: !order;
         E.await_terminated db [ ti; tj ]));
  Alcotest.(check (list string)) "CD ordering respected" [ "ti"; "tj" ] (List.rev !order)

let test_coop_group_abort_discards_both () =
  let db =
    with_db (fun db ->
        let ti = E.initiate db (fun () -> E.write db (oid 1) (vi 5)) in
        let tj = E.initiate db (fun () -> E.write db (oid 1) (vi 6)) in
        Coop.pair db ~ti ~tj ~objs:[ oid 1 ] ~coupling:`Group;
        ignore (E.begin_ db ti);
        ignore (E.begin_ db tj);
        ignore (E.wait db ti);
        ignore (E.wait db tj);
        ignore (E.abort db tj);
        Alcotest.(check bool) "neither commits" false (E.commit db ti))
  in
  Alcotest.(check int) "both discarded" 0 (geti db 1)

(* ------------------------------------------------------------------ *)
(* Cursor stability (3.2.2)                                            *)

let test_cursor_stability_writer_proceeds_behind_cursor () =
  let writer_done_before_scan_ended = ref false in
  ignore
    (with_db (fun db ->
         let records = [ oid 1; oid 2; oid 3; oid 4 ] in
         let scanner =
           E.initiate db (fun () ->
               Cursor_stability.scan db records ~f:(fun _ _ -> Sched.yield ()))
         in
         let writer =
           E.initiate db (fun () ->
               (* Writes the first record — legal as soon as the cursor
                  has moved past it, long before the scanner commits. *)
               E.write db (oid 1) (vi 99);
               writer_done_before_scan_ended := not (E.is_terminated db scanner))
         in
         ignore (E.begin_ db scanner);
         Sched.yield ();
         ignore (E.begin_ db writer);
         Alcotest.(check bool) "writer commits" true (E.commit db writer);
         Alcotest.(check bool) "scanner commits" true (E.commit db scanner)));
  Alcotest.(check bool) "writer finished while scan was active" true
    !writer_done_before_scan_ended

let test_repeatable_read_blocks_writer_until_commit () =
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let records = [ oid 1; oid 2 ] in
         let scanner =
           E.initiate db (fun () ->
               Cursor_stability.scan_repeatable db records ~f:(fun _ _ -> Sched.yield ());
               order := "scan-done" :: !order)
         in
         let writer =
           E.initiate db (fun () ->
               E.write db (oid 1) (vi 99);
               order := "write-done" :: !order)
         in
         ignore (E.begin_ db scanner);
         Sched.yield ();
         ignore (E.begin_ db writer);
         ignore (E.commit db scanner);
         ignore (E.commit db writer)));
  Alcotest.(check (list string)) "writer waited for scanner" [ "scan-done"; "write-done" ]
    (List.rev !order)

let test_cursor_stability_non_repeatable_read () =
  (* The price of cursor stability: re-reading a record behind the
     cursor can observe another transaction's committed write. *)
  ignore
    (with_db (fun db ->
         let first = ref (-1) and second = ref (-1) in
         let scanner =
           E.initiate db (fun () ->
               Cursor_stability.scan db [ oid 1 ] ~f:(fun _ v -> first := Value.to_int v);
               Sched.yield ();
               Sched.yield ();
               (* Re-read after the writer committed. *)
               second := Value.to_int (E.read_exn db (oid 1)))
         in
         let writer = E.initiate db (fun () -> E.write db (oid 1) (vi 99)) in
         ignore (E.begin_ db scanner);
         Sched.yield ();
         ignore (E.begin_ db writer);
         ignore (E.commit db writer);
         ignore (E.commit db scanner);
         Alcotest.(check int) "first read" 0 !first;
         Alcotest.(check int) "non-repeatable second read" 99 !second))

(* ------------------------------------------------------------------ *)
(* Workflow (3.2.3 + appendix)                                         *)

let wf_task db ~n ?(fails = false) label =
  Workflow.task label
    ~compensate:(fun () -> E.write db (oid n) (vi 0))
    (fun () ->
      if fails then failwith (label ^ " fails");
      E.write db (oid n) (vi 1))

let test_workflow_seq_success () =
  let db =
    with_db (fun db ->
        let o = Workflow.run db (Workflow.Seq [ Workflow.Task (wf_task db ~n:1 "a"); Workflow.Task (wf_task db ~n:2 "b") ]) in
        Alcotest.(check bool) "success" true o.Workflow.success;
        Alcotest.(check (list string)) "labels" [ "a"; "b" ] (Workflow.committed_labels o))
  in
  Alcotest.(check int) "both effects" 2 (geti db 1 + geti db 2)

let test_workflow_seq_failure_compensates_prefix () =
  let db =
    with_db (fun db ->
        let o =
          Workflow.run db
            (Workflow.Seq
               [
                 Workflow.Task (wf_task db ~n:1 "a");
                 Workflow.Task (wf_task db ~n:2 "b");
                 Workflow.Task (wf_task db ~n:3 ~fails:true "c");
               ])
        in
        Alcotest.(check bool) "failed" false o.Workflow.success;
        Alcotest.(check (list string)) "compensated newest-first" [ "b"; "a" ]
          (Workflow.compensated_labels o))
  in
  Alcotest.(check (list int)) "clean" [ 0; 0; 0 ] [ geti db 1; geti db 2; geti db 3 ]

let test_workflow_alternatives_fallback () =
  ignore
    (with_db (fun db ->
         let o =
           Workflow.run db
             (Workflow.Alternatives
                [
                  Workflow.Task (wf_task db ~n:1 ~fails:true "first");
                  Workflow.Task (wf_task db ~n:2 "second");
                ])
         in
         Alcotest.(check bool) "success" true o.Workflow.success;
         Alcotest.(check (list string)) "second won" [ "second" ] (Workflow.committed_labels o)))

let test_workflow_alternatives_rollback_partial_branch () =
  (* A composite alternative that half-succeeds is rolled back before
     the next alternative runs. *)
  let db =
    with_db (fun db ->
        let branch1 =
          Workflow.Seq
            [ Workflow.Task (wf_task db ~n:1 "b1-step1"); Workflow.Task (wf_task db ~n:2 ~fails:true "b1-step2") ]
        in
        let branch2 = Workflow.Task (wf_task db ~n:3 "b2") in
        let o = Workflow.run db (Workflow.Alternatives [ branch1; branch2 ]) in
        Alcotest.(check bool) "success via branch2" true o.Workflow.success)
  in
  Alcotest.(check int) "branch1 partial work compensated" 0 (geti db 1);
  Alcotest.(check int) "branch2 committed" 1 (geti db 3)

let test_workflow_optional_failure_skipped () =
  ignore
    (with_db (fun db ->
         let o =
           Workflow.run db
             (Workflow.Seq
                [
                  Workflow.Task (wf_task db ~n:1 "main");
                  Workflow.Optional (Workflow.Task (wf_task db ~n:2 ~fails:true "extra"));
                  Workflow.Task (wf_task db ~n:3 "after");
                ])
         in
         Alcotest.(check bool) "workflow survives optional failure" true o.Workflow.success;
         Alcotest.(check bool) "skip recorded" true
           (List.exists (function Workflow.Skipped _ -> true | _ -> false) o.Workflow.events)))

let test_workflow_race_first_completer_wins () =
  let db =
    with_db (fun db ->
        (* The first contestant completes immediately; the second
           yields first, so under FIFO the first always wins. *)
        let quick = Workflow.task "quick" (fun () -> E.write db (oid 1) (vi 1)) in
        let slow =
          Workflow.task "slow" (fun () ->
              Sched.yield ();
              Sched.yield ();
              E.write db (oid 2) (vi 1))
        in
        let o = Workflow.run db (Workflow.Race [ slow; quick ]) in
        Alcotest.(check bool) "success" true o.Workflow.success;
        Alcotest.(check bool) "quick chosen" true
          (List.exists (function Workflow.Chose "quick" -> true | _ -> false) o.Workflow.events))
  in
  Alcotest.(check int) "winner's effect" 1 (geti db 1);
  Alcotest.(check int) "loser aborted" 0 (geti db 2)

let test_workflow_race_all_fail () =
  ignore
    (with_db (fun db ->
         let o =
           Workflow.run db
             (Workflow.Race [ wf_task db ~n:1 ~fails:true "a"; wf_task db ~n:2 ~fails:true "b" ])
         in
         Alcotest.(check bool) "race failed" false o.Workflow.success))

let test_workflow_group () =
  let db =
    with_db (fun db ->
        let o =
          Workflow.run db
            (Workflow.Group [ wf_task db ~n:1 "g1"; wf_task db ~n:2 "g2" ])
        in
        Alcotest.(check bool) "group success" true o.Workflow.success)
  in
  Alcotest.(check int) "both committed atomically" 2 (geti db 1 + geti db 2)

let test_workflow_group_failure_atomic () =
  let db =
    with_db (fun db ->
        let o =
          Workflow.run db
            (Workflow.Group [ wf_task db ~n:1 "g1"; wf_task db ~n:2 ~fails:true "g2" ])
        in
        Alcotest.(check bool) "group failed" false o.Workflow.success)
  in
  Alcotest.(check int) "neither committed" 0 (geti db 1 + geti db 2)

(* Property: the appendix workflow under arbitrary availability — if
   the activity succeeds, exactly one flight and the hotel are booked;
   if it fails, nothing is booked.  The car never decides the outcome. *)
let prop_trip_invariant =
  QCheck2.Test.make ~name:"appendix trip invariant" ~count:150
    QCheck2.Gen.(array_size (return 6) bool)
    (fun avail ->
      (* indices: 0 Delta, 1 United, 2 American, 3 Equator, 4 National,
         5 Avis *)
      let db =
        with_db ~objects:8 (fun db ->
            let mk i label =
              Workflow.task label
                ~compensate:(fun () -> E.write db (oid (i + 1)) (vi 0))
                (fun () ->
                  if not avail.(i) then failwith "unavailable";
                  E.write db (oid (i + 1)) (vi 1))
            in
            let wf =
              Workflow.(
                Seq
                  [
                    Alternatives [ Task (mk 0 "Delta"); Task (mk 1 "United"); Task (mk 2 "American") ];
                    Task (mk 3 "Equator");
                    Optional (Race [ mk 4 "National"; mk 5 "Avis" ]);
                  ])
            in
            ignore (Workflow.run db wf))
      in
      let booked i = geti db (i + 1) = 1 in
      let flights = List.length (List.filter booked [ 0; 1; 2 ]) in
      let success_expected = (avail.(0) || avail.(1) || avail.(2)) && avail.(3) in
      if success_expected then flights = 1 && booked 3
      else flights = 0 && not (booked 3))

let () =
  Alcotest.run "asset_models"
    [
      ( "atomic",
        [
          Alcotest.test_case "commit" `Quick test_atomic_commit;
          Alcotest.test_case "abort on exception" `Quick test_atomic_abort_on_exception;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "commit all" `Quick test_distributed_commit_all;
          Alcotest.test_case "abort all" `Quick test_distributed_abort_all;
          Alcotest.test_case "empty and singleton" `Quick test_distributed_empty_and_singleton;
        ] );
      ( "contingent",
        [
          Alcotest.test_case "first wins" `Quick test_contingent_first_wins;
          Alcotest.test_case "fallback order" `Quick test_contingent_fallback_order;
          Alcotest.test_case "all fail" `Quick test_contingent_all_fail;
          Alcotest.test_case "declarative exclusion" `Quick test_contingent_declarative_exclusion;
        ] );
      ( "nested",
        [
          Alcotest.test_case "success delegates up" `Quick test_nested_success_delegates_up;
          Alcotest.test_case "child failure aborts parent" `Quick
            test_nested_child_failure_aborts_parent;
          Alcotest.test_case "report policy" `Quick test_nested_report_policy_parent_survives;
          Alcotest.test_case "child sees parent objects" `Quick test_nested_child_sees_parent_objects;
          Alcotest.test_case "three levels" `Quick test_nested_three_levels;
          Alcotest.test_case "abort containment" `Quick
            test_nested_abort_containment_leaves_prior_siblings;
          Alcotest.test_case "sub outside txn rejected" `Quick
            test_nested_sub_outside_transaction_rejected;
        ] );
      ( "split_join",
        [
          Alcotest.test_case "independent outcomes" `Quick test_split_independent_outcomes;
          Alcotest.test_case "split runs new work" `Quick test_split_runs_new_work;
          Alcotest.test_case "join merges" `Quick test_join_merges_into_target;
        ] );
      ( "saga",
        [
          Alcotest.test_case "commit in order" `Quick test_saga_commit_in_order;
          Alcotest.test_case "compensates in reverse" `Quick test_saga_compensates_in_reverse;
          Alcotest.test_case "partial results visible" `Quick
            test_saga_component_commits_are_visible_early;
          Alcotest.test_case "first step fails" `Quick test_saga_first_step_fails_no_compensation;
          Alcotest.test_case "rejects missing compensation" `Quick
            test_saga_rejects_missing_compensation;
          Alcotest.test_case "compensation retried" `Quick test_saga_compensation_retried;
          QCheck_alcotest.to_alcotest prop_saga_failure_leaves_clean_state;
        ] );
      ( "chained",
        [
          Alcotest.test_case "commits and carries" `Quick test_chained_commits_links_and_carries;
          Alcotest.test_case "carried state invisible" `Quick
            test_chained_carried_state_invisible_between_links;
          Alcotest.test_case "broken link" `Quick test_chained_broken_link_rolls_back_carry_only;
          Alcotest.test_case "empty and singleton" `Quick test_chained_empty_and_singleton;
        ] );
      ( "coop",
        [
          Alcotest.test_case "interleaved edits" `Quick test_coop_interleaved_edits;
          Alcotest.test_case "commit ordered" `Quick test_coop_commit_ordered;
          Alcotest.test_case "group abort discards both" `Quick test_coop_group_abort_discards_both;
        ] );
      ( "cursor_stability",
        [
          Alcotest.test_case "writer proceeds behind cursor" `Quick
            test_cursor_stability_writer_proceeds_behind_cursor;
          Alcotest.test_case "repeatable read blocks writer" `Quick
            test_repeatable_read_blocks_writer_until_commit;
          Alcotest.test_case "non-repeatable read" `Quick test_cursor_stability_non_repeatable_read;
        ] );
      ( "workflow",
        [
          Alcotest.test_case "seq success" `Quick test_workflow_seq_success;
          Alcotest.test_case "seq failure compensates" `Quick
            test_workflow_seq_failure_compensates_prefix;
          Alcotest.test_case "alternatives fallback" `Quick test_workflow_alternatives_fallback;
          Alcotest.test_case "alternatives rollback partial branch" `Quick
            test_workflow_alternatives_rollback_partial_branch;
          Alcotest.test_case "optional failure skipped" `Quick test_workflow_optional_failure_skipped;
          Alcotest.test_case "race first completer wins" `Quick
            test_workflow_race_first_completer_wins;
          Alcotest.test_case "race all fail" `Quick test_workflow_race_all_fail;
          Alcotest.test_case "group" `Quick test_workflow_group;
          Alcotest.test_case "group failure atomic" `Quick test_workflow_group_failure_atomic;
          QCheck_alcotest.to_alcotest prop_trip_invariant;
        ] );
    ]
