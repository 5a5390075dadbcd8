(* Tests for the private-workspace operating mode. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module W = Asset_core.Workspace
module Sched = Asset_sched.Scheduler
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Log = Asset_wal.Log
module Record = Asset_wal.Record

let oid = Oid.of_int
let vi = Value.of_int
let with_db ?(objects = 8) program = R.with_fresh_db ~objects program
let geti db o = Value.to_int (Store.read_exn (E.store db) (oid o))

(* Run [body] as an atomic transaction that must commit.  A failed
   check inside the body only aborts the transaction, so re-raise the
   body's exception afterwards and fail if it did not commit. *)
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

let count_update_records db =
  let n = ref 0 in
  Log.iter (E.log db) (fun _ r -> match r with Record.Update _ -> incr n | _ -> ());
  !n

let test_checkout_modify_checkin () =
  let db =
    with_db (fun db ->
        atomically db (fun () ->
            W.with_workspace db (fun w ->
                W.set w (oid 1) (vi 10);
                W.update w (oid 2) (fun _ -> vi 20))))
  in
  Alcotest.(check int) "ob1 checked in" 10 (geti db 1);
  Alcotest.(check int) "ob2 checked in" 20 (geti db 2)

let test_private_updates_one_log_record_each () =
  let db =
    with_db (fun db ->
        atomically db (fun () ->
            W.with_workspace db (fun w ->
                (* 100 private modifications of the same object... *)
                for i = 1 to 100 do
                  W.update w (oid 1) (fun _ -> vi i)
                done)))
  in
  (* ...but exactly one logged update. *)
  Alcotest.(check int) "single update record" 1 (count_update_records db);
  Alcotest.(check int) "final value" 100 (geti db 1)

let test_shared_mode_logs_every_write () =
  let db =
    with_db (fun db ->
        atomically db (fun () ->
            for i = 1 to 100 do
              E.write db (oid 1) (vi i)
            done))
  in
  Alcotest.(check int) "100 update records" 100 (count_update_records db)

let test_clean_copies_not_written_back () =
  let db =
    with_db (fun db ->
        atomically db (fun () ->
            W.with_workspace db (fun w ->
                W.check_out w (oid 1);
                (* read-only: no write-back *)
                Alcotest.(check int) "copy readable" 0 (Value.to_int (W.get_exn w (oid 1)));
                W.set w (oid 2) (vi 2);
                Alcotest.(check int) "one dirty" 1 (W.dirty_count w))))
  in
  Alcotest.(check int) "only the dirty object logged" 1 (count_update_records db)

let test_abort_discards_private_work () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               W.with_workspace db (fun w ->
                   W.set w (oid 1) (vi 99);
                   failwith "abort before check-in"))))
  in
  Alcotest.(check int) "private work vanished" 0 (geti db 1);
  (* Nothing was logged: nothing to undo. *)
  Alcotest.(check int) "no update records" 0 (count_update_records db)

let test_checkin_then_abort_undoes () =
  let db =
    with_db (fun db ->
        ignore
          (Asset_models.Atomic.run db (fun () ->
               let w = W.create db in
               W.set w (oid 1) (vi 99);
               ignore (W.check_in w);
               failwith "abort after check-in")))
  in
  Alcotest.(check int) "checked-in work undone by abort" 0 (geti db 1)

let test_update_intent_takes_write_lock () =
  (* With `Update intent, the lock is exclusive from check-out: a
     concurrent reader must wait even before any write-back. *)
  let order = ref [] in
  ignore
    (with_db (fun db ->
         let owner =
           E.initiate db (fun () ->
               let w = W.create db in
               W.check_out ~intent:`Update w (oid 1);
               Sched.yield ();
               W.set w (oid 1) (vi 5);
               ignore (W.check_in w);
               order := "owner-done" :: !order)
         in
         let reader =
           E.initiate db (fun () ->
               let v = E.read_exn db (oid 1) in
               order := Printf.sprintf "reader-%d" (Value.to_int v) :: !order)
         in
         ignore (E.begin_ db owner);
         ignore (E.begin_ db reader);
         ignore (E.commit db owner);
         ignore (E.commit db reader)));
  Alcotest.(check (list string)) "reader waited for checkout owner"
    [ "owner-done"; "reader-5" ] (List.rev !order)

let test_foreign_transaction_rejected () =
  ignore
    (with_db (fun db ->
         let ws = ref None in
         let t1 = E.initiate db (fun () -> ws := Some (W.create db)) in
         ignore (E.begin_ db t1);
         ignore (E.wait db t1);
         let t2 =
           E.initiate db (fun () ->
               match W.set (Option.get !ws) (oid 1) (vi 1) with
               | exception Invalid_argument _ -> ()
               | () -> Alcotest.fail "expected ownership check")
         in
         ignore (E.begin_ db t2);
         (* A failed check in t2's body would abort it. *)
         Alcotest.(check bool) "t2 committed" true (E.commit db t2);
         ignore (E.commit db t1)))

let test_discard () =
  let db =
    with_db (fun db ->
        atomically db (fun () ->
            let w = W.create db in
            W.set w (oid 1) (vi 1);
            W.discard w;
            Alcotest.(check int) "nothing dirty" 0 (W.dirty_count w);
            ignore (W.check_in w)))
  in
  Alcotest.(check int) "discarded work not written" 0 (geti db 1)

let test_workspace_outside_transaction_rejected () =
  ignore
    (with_db (fun db ->
         match W.create db with
         | exception Invalid_argument _ -> ()
         | _ -> Alcotest.fail "expected rejection"))

let prop_workspace_equals_shared_mode =
  (* The same random update program produces the same final state in
     workspace mode and in shared-cache mode. *)
  QCheck2.Test.make ~name:"workspace mode equivalent to shared mode" ~count:100
    QCheck2.Gen.(list_size (int_range 0 40) (pair (int_range 1 5) (int_range 0 100)))
    (fun updates ->
      let run_shared () =
        with_db (fun db ->
            atomically db (fun () -> List.iter (fun (o, v) -> E.write db (oid o) (vi v)) updates))
      in
      let run_workspace () =
        with_db (fun db ->
            atomically db (fun () ->
                W.with_workspace db (fun w ->
                    List.iter (fun (o, v) -> W.set w (oid o) (vi v)) updates)))
      in
      Store.equal_content (E.store (run_shared ())) (E.store (run_workspace ())))

let () =
  Alcotest.run "asset_workspace"
    [
      ( "workspace",
        [
          Alcotest.test_case "checkout/modify/checkin" `Quick test_checkout_modify_checkin;
          Alcotest.test_case "one log record per dirty object" `Quick
            test_private_updates_one_log_record_each;
          Alcotest.test_case "shared mode logs every write" `Quick
            test_shared_mode_logs_every_write;
          Alcotest.test_case "clean copies skipped" `Quick test_clean_copies_not_written_back;
          Alcotest.test_case "abort discards private work" `Quick test_abort_discards_private_work;
          Alcotest.test_case "check-in then abort undoes" `Quick test_checkin_then_abort_undoes;
          Alcotest.test_case "update intent locks" `Quick test_update_intent_takes_write_lock;
          Alcotest.test_case "foreign transaction rejected" `Quick
            test_foreign_transaction_rejected;
          Alcotest.test_case "discard" `Quick test_discard;
          Alcotest.test_case "outside transaction rejected" `Quick
            test_workspace_outside_transaction_rejected;
          QCheck_alcotest.to_alcotest prop_workspace_equals_shared_mode;
        ] );
    ]
