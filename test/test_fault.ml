(* The fault-injection subsystem: policy mechanics, typed storage
   errors, WAL CRC verification, torn writes, and graceful engine
   degradation under injected I/O failures. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Pager = Asset_storage.Pager
module Pool = Asset_storage.Buffer_pool
module Log = Asset_wal.Log
module Record = Asset_wal.Record
module Recovery = Asset_wal.Recovery
module Fault = Asset_fault.Fault
module Rng = Asset_util.Rng

let oid = Oid.of_int
let vi = Value.of_int

let tmp =
  let n = ref 0 in
  fun ext ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asset_fault_%d_%d.%s" (Unix.getpid ()) !n ext)

let cleanup path = try Sys.remove path with Sys_error _ -> ()

(* The first segment of a WAL directory: the whole log while nothing
   has rotated. *)
let first_seg dir = Filename.concat dir "seg-000000000000.wal"

(* --- policy mechanics --- *)

let test_fail_nth_fires_once () =
  Fault.reset_all ();
  let site = Fault.register "test.site" in
  Fault.arm site (Fault.Fail_nth 3);
  Fault.hit site;
  Fault.hit site;
  Alcotest.check_raises "third hit fails" (Fault.Injected "test.site") (fun () -> Fault.hit site);
  (* One-shot: disarmed after firing. *)
  Fault.hit site;
  Alcotest.(check int) "hits counted" 4 (Fault.hits site);
  Alcotest.(check int) "fired once" 1 (Fault.fired site)

let test_crash_once_and_reset () =
  Fault.reset_all ();
  let site = Fault.register "test.site" in
  Fault.arm site Fault.Crash_once;
  Alcotest.check_raises "crash" (Fault.Crash "test.site") (fun () -> Fault.hit site);
  Fault.hit site;
  (* still off *)
  Fault.reset_all ();
  Alcotest.(check int) "reset zeroes hits" 0 (Fault.hits site)

let test_prob_deterministic () =
  Fault.reset_all ();
  let fire_pattern seed =
    let site = Fault.register "test.prob" in
    Fault.reset site;
    Fault.arm site (Fault.Fail_prob (0.5, Rng.create seed));
    List.init 64 (fun _ -> match Fault.check site with Some `Fail -> true | _ -> false)
  in
  let a = fire_pattern 11 and b = fire_pattern 11 and c = fire_pattern 12 in
  Alcotest.(check (list bool)) "same seed, same schedule" a b;
  Alcotest.(check bool) "different seed differs" true (a <> c);
  Alcotest.(check bool) "some fired" true (List.exists Fun.id a);
  Alcotest.(check bool) "some passed" true (List.exists not a)

let test_arm_name_unknown () =
  Alcotest.(check bool) "unknown site" false (Fault.arm_name "no.such.site" Fault.Fail_once)

let test_disk_full_budget () =
  Fault.reset_all ();
  let site = Fault.register "test.disk" in
  Fault.arm site (Fault.Disk_full 100);
  (* Size-aware hits draw down the byte budget... *)
  Alcotest.(check bool) "60 fits" true (Fault.check_bytes site 60 = None);
  Alcotest.(check bool) "40 more fits" true (Fault.check_bytes site 40 = None);
  (* ...and once exhausted every further write fails: a full disk
     stays full, the policy does not disarm. *)
  Alcotest.(check bool) "1 over fails" true (Fault.check_bytes site 1 = Some `Fail);
  Alcotest.(check bool) "still full" true (Fault.check_bytes site 1 = Some `Fail);
  Alcotest.(check int) "every refusal counted" 2 (Fault.fired site);
  (* Zero-byte probes (plain hits) only fail after exhaustion. *)
  Fault.reset site;
  Fault.arm site (Fault.Disk_full 0);
  Alcotest.(check bool) "exhausted budget fails plain check" true (Fault.check site = Some `Fail);
  Fault.reset site;
  Fault.arm site (Fault.Disk_full 10);
  Alcotest.(check bool) "live budget passes plain check" true (Fault.check site = None)

(* --- typed storage errors --- *)

let test_real_io_error_wrapped () =
  Fault.reset_all ();
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "asset_no_such_dir/x.wal" in
  match Log.load_dir missing with
  | _ -> Alcotest.fail "expected Storage_error"
  | exception Fault.Storage_error ("wal.open", Unix.Unix_error (Unix.ENOENT, _, _)) -> ()

let test_injected_error_wrapped () =
  Fault.reset_all ();
  let path = tmp "pages" in
  let pager = Pager.create ~page_size:256 path in
  let pid = Pager.alloc_page pager in
  Fault.arm (Fault.register "pager.write_page") Fault.Fail_once;
  (match Pager.write_page pager pid (Bytes.make 256 'x') with
  | () -> Alcotest.fail "expected Storage_error"
  | exception Fault.Storage_error ("pager.write_page", Fault.Injected _) -> ());
  (* The failure was transient: the next write goes through. *)
  Pager.write_page pager pid (Bytes.make 256 'y');
  Alcotest.(check char) "second write landed" 'y' (Bytes.get (Pager.read_page pager pid) 0);
  Pager.close pager;
  cleanup path

(* --- WAL CRC --- *)

let write_sample_log dir n =
  let log = Log.create_dir dir in
  for i = 1 to n do
    Log.append log (Record.Update { tid = Asset_util.Id.Tid.of_int i; oid = oid i; before = None; after = vi i })
    |> ignore
  done;
  Log.force log;
  Log.close log

let test_crc_detects_bit_flip () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  write_sample_log dir 6;
  (* Flip a byte inside the 4th record's *body* (walk the framing to
     find it): a complete frame whose payload no longer matches its
     checksum — unambiguous corruption, unlike a damaged length header
     which is indistinguishable from a torn tail. *)
  let fd = Unix.openfile (first_seg dir) [ Unix.O_RDWR ] 0o644 in
  let hdr = Bytes.create 4 in
  let off = ref 0 in
  for _ = 1 to 3 do
    ignore (Unix.lseek fd !off Unix.SEEK_SET);
    ignore (Unix.read fd hdr 0 4);
    off := !off + 8 + Int32.to_int (Bytes.get_int32_le hdr 0)
  done;
  let target = !off + 8 in
  ignore (Unix.lseek fd target Unix.SEEK_SET);
  let b = Bytes.create 1 in
  ignore (Unix.read fd b 0 1);
  Bytes.set b 0 (Char.chr (Char.code (Bytes.get b 0) lxor 0xff));
  ignore (Unix.lseek fd target Unix.SEEK_SET);
  ignore (Unix.write fd b 0 1);
  Unix.close fd;
  let log = Log.load_dir dir in
  Alcotest.(check bool) "records dropped" true (Log.corrupt_dropped log > 0);
  Alcotest.(check int) "good prefix survives" 3 (Log.length log);
  (* The segment was truncated back to the good prefix: a reload is
     clean. *)
  Log.close log;
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "truncated tail gone" 0 (Log.corrupt_dropped log2);
  Alcotest.(check int) "same prefix" (Log.length log) (Log.length log2);
  Log.close log2;
  Log.remove_dir dir

let test_crc_dropped_in_recovery_report () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  write_sample_log dir 4;
  (* Corrupt the last record's body (the segment's tail). *)
  let fd = Unix.openfile (first_seg dir) [ Unix.O_RDWR ] 0o644 in
  let size = (Unix.fstat fd).Unix.st_size in
  ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.of_string "\xff") 0 1);
  Unix.close fd;
  let log = Log.load_dir dir in
  let store = Asset_storage.Heap_store.store () in
  let report = Recovery.recover log store in
  Alcotest.(check int) "report carries dropped count" 1 report.Recovery.log_records_dropped;
  Log.close log;
  Log.remove_dir dir

let test_clean_log_drops_nothing () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  write_sample_log dir 5;
  let log = Log.load_dir dir in
  Alcotest.(check int) "no drops" 0 (Log.corrupt_dropped log);
  Alcotest.(check int) "all records" 5 (Log.length log);
  Log.close log;
  Log.remove_dir dir

(* --- simulated power loss on the log --- *)

let test_log_crash_discards_staging () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  Log.append log (Record.Begin (Asset_util.Id.Tid.of_int 1)) |> ignore;
  Log.force log;
  (* Staged but never drained: must not survive the crash. *)
  Log.append log (Record.Begin (Asset_util.Id.Tid.of_int 2)) |> ignore;
  Log.crash log;
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "only the forced record survives" 1 (Log.length log2);
  Log.close log2;
  Log.remove_dir dir

let test_torn_wal_write_truncated () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  Log.append log (Record.Begin (Asset_util.Id.Tid.of_int 1)) |> ignore;
  Log.force log;
  Log.append log (Record.Update { tid = Asset_util.Id.Tid.of_int 1; oid = oid 1; before = None; after = vi 7 })
  |> ignore;
  Fault.arm (Fault.register "wal.torn_write") Fault.Crash_once;
  (match Log.force log with
  | () -> Alcotest.fail "expected Crash"
  | exception Fault.Crash "wal.torn_write" -> ());
  Log.crash log;
  Fault.reset_all ();
  (* Half the staged bytes hit the segment; load truncates the torn
     tail back to the forced prefix. *)
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "torn tail truncated" 1 (Log.length log2);
  Log.close log2;
  Log.remove_dir dir

(* --- pager torn page write --- *)

let test_torn_page_write () =
  Fault.reset_all ();
  let path = tmp "pages" in
  let pager = Pager.create ~page_size:256 path in
  let pid = Pager.alloc_page pager in
  Pager.write_page pager pid (Bytes.make 256 'a');
  Fault.arm (Fault.register "pager.torn_write") Fault.Crash_once;
  (match Pager.write_page pager pid (Bytes.make 256 'b') with
  | () -> Alcotest.fail "expected Crash"
  | exception Fault.Crash "pager.torn_write" -> ());
  Fault.reset_all ();
  let b = Pager.read_page pager pid in
  Alcotest.(check char) "first half new" 'b' (Bytes.get b 0);
  Alcotest.(check char) "second half old" 'a' (Bytes.get b 255);
  Pager.close pager;
  cleanup path

(* --- buffer pool crash mid-flush --- *)

let test_pool_crash_mid_flush () =
  Fault.reset_all ();
  let path = tmp "pages" in
  let pager = Pager.create ~page_size:256 path in
  let pool = Pool.create ~capacity:8 pager in
  let pids = List.init 3 (fun _ -> Pager.alloc_page pager) in
  List.iteri
    (fun i pid ->
      Pool.with_page pool pid (fun frame ->
          Bytes.fill frame.Pool.bytes 0 256 (Char.chr (Char.code '0' + i));
          Pool.mark_dirty frame))
    pids;
  Fault.arm (Fault.register "pool.flush_frame") (Fault.Crash_nth 2);
  (match Pool.flush_all pool with
  | () -> Alcotest.fail "expected Crash"
  | exception Fault.Crash "pool.flush_frame" -> ());
  Fault.reset_all ();
  (* Exactly one dirty page reached the disk before the power died. *)
  Pool.crash pool;
  let on_disk =
    List.filter (fun pid -> Bytes.get (Pager.read_page pager pid) 0 <> '\000') pids
  in
  Alcotest.(check int) "one page flushed" 1 (List.length on_disk);
  Pager.close pager;
  cleanup path

(* --- engine-level graceful degradation --- *)

let test_injected_wal_failure_aborts_txn () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:4 ~value:(fun _ -> vi 0);
  let db = E.create ~log store in
  (* Fail the 4th append: both Begins land first (#1, #2), then the
     bodies run in FIFO order — t1's update is #3, t2's update is #4,
     so t2's write fails. *)
  Fault.arm (Fault.register "wal.append") (Fault.Fail_nth 4);
  let t1 = ref Asset_util.Id.Tid.null and t2 = ref Asset_util.Id.Tid.null in
  R.run_exn db (fun () ->
      t1 := E.initiate db (fun () -> E.write db (oid 1) (vi 1));
      t2 := E.initiate db (fun () -> E.write db (oid 2) (vi 2));
      ignore (E.begin_ db !t1);
      ignore (E.begin_ db !t2);
      ignore (E.commit db !t1);
      ignore (E.commit db !t2));
  Fault.reset_all ();
  Alcotest.(check bool) "t1 committed" true (E.is_committed db !t1);
  Alcotest.(check bool) "t2 aborted" true (E.is_aborted db !t2);
  (match E.failure_of db !t2 with
  | Some (Fault.Storage_error ("wal.append", Fault.Injected _)) -> ()
  | Some e -> Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
  | None -> Alcotest.fail "no failure recorded");
  Alcotest.(check bool) "t2's write rolled back" true (Store.read store (oid 2) = Some (vi 0));
  Log.close log;
  Log.remove_dir dir

let () =
  Alcotest.run "asset_fault"
    [
      ( "policies",
        [
          Alcotest.test_case "fail-nth fires once" `Quick test_fail_nth_fires_once;
          Alcotest.test_case "crash-once and reset" `Quick test_crash_once_and_reset;
          Alcotest.test_case "probability is seeded" `Quick test_prob_deterministic;
          Alcotest.test_case "arm unknown site" `Quick test_arm_name_unknown;
          Alcotest.test_case "disk-full budget" `Quick test_disk_full_budget;
        ] );
      ( "typed_errors",
        [
          Alcotest.test_case "real I/O error wrapped" `Quick test_real_io_error_wrapped;
          Alcotest.test_case "injected error wrapped" `Quick test_injected_error_wrapped;
        ] );
      ( "wal_crc",
        [
          Alcotest.test_case "bit flip detected" `Quick test_crc_detects_bit_flip;
          Alcotest.test_case "dropped count in report" `Quick test_crc_dropped_in_recovery_report;
          Alcotest.test_case "clean log drops nothing" `Quick test_clean_log_drops_nothing;
        ] );
      ( "power_loss",
        [
          Alcotest.test_case "crash discards staging" `Quick test_log_crash_discards_staging;
          Alcotest.test_case "torn WAL write truncated" `Quick test_torn_wal_write_truncated;
          Alcotest.test_case "torn page write" `Quick test_torn_page_write;
          Alcotest.test_case "pool crash mid-flush" `Quick test_pool_crash_mid_flush;
        ] );
      ( "engine",
        [
          Alcotest.test_case "injected WAL failure aborts txn" `Quick
            test_injected_wal_failure_aborts_txn;
        ] );
    ]
