(* The fault-injection subsystem: policy mechanics, typed storage
   errors, WAL CRC verification, torn writes, and graceful engine
   degradation under injected I/O failures. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap_store = Asset_storage.Heap_store
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

(* "wal.force" fires before the force touches the file, so an injected
   failure there loses nothing: the next force goes through. *)
let test_injected_error_wrapped () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  let lsn = Log.append log (Record.Begin (Asset_util.Id.Tid.of_int 1)) in
  Fault.arm (Fault.register "wal.force") Fault.Fail_once;
  (match Log.force log with
  | () -> Alcotest.fail "expected Storage_error"
  | exception Fault.Storage_error ("wal.force", Fault.Injected _) -> ());
  Alcotest.(check bool) "nothing forced" true (Log.forced_lsn log < lsn);
  Log.force log;
  Alcotest.(check int) "second force landed" lsn (Log.forced_lsn log);
  Log.close log;
  Log.remove_dir dir

(* A frame the loader would read as corruption is refused before
   anything is staged. *)
let test_oversized_record_refused () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  let huge = Value.of_string (String.make Log.max_record_bytes 'x') in
  let record = Record.Update { tid = Asset_util.Id.Tid.of_int 1; oid = oid 1; before = None; after = huge } in
  (match Log.append log record with
  | _ -> Alcotest.fail "expected Storage_error"
  | exception Fault.Storage_error ("wal.append", Failure _) -> ());
  Alcotest.(check int) "nothing appended" 0 (Log.length log);
  Alcotest.(check int) "nothing staged" 0 (Log.appended_bytes log);
  let lsn = Log.append log (Record.Begin (Asset_util.Id.Tid.of_int 2)) in
  Log.force log;
  Log.close log;
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "the later record loads" (lsn + 1) (Log.length log2);
  Log.close log2;
  Log.remove_dir dir

(* --- WAL CRC --- *)

let write_sample_log dir n =
  let log = Log.create_dir dir in
  for i = 1 to n do
    Log.append log (Record.Update { tid = Asset_util.Id.Tid.of_int i; oid = oid i; before = None; after = vi i })
    |> ignore
  done;
  Log.force log;
  Log.close log

(* Flip the first byte of the [index]-th record's *body*, 0-based (walk
   the framing to find it): a complete frame whose payload no longer
   matches its checksum — unambiguous corruption, unlike a damaged
   length header which is indistinguishable from a torn tail. *)
let flip_body path ~index =
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o644 in
  let hdr = Bytes.create 4 in
  let off = ref 0 in
  for _ = 1 to index do
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
  Unix.close fd

let test_crc_detects_bit_flip () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  write_sample_log dir 6;
  flip_body (first_seg dir) ~index:3;
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

let file_size path = (Unix.stat path).Unix.st_size

let test_torn_wal_write_truncated () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  Log.append log (Record.Begin (Asset_util.Id.Tid.of_int 1)) |> ignore;
  Log.force log;
  let forced_end = Log.appended_bytes log in
  Log.append log (Record.Update { tid = Asset_util.Id.Tid.of_int 1; oid = oid 1; before = None; after = vi 7 })
  |> ignore;
  Fault.arm (Fault.register "wal.torn_write") Fault.Crash_once;
  (match Log.force log with
  | () -> Alcotest.fail "expected Crash"
  | exception Fault.Crash "wal.torn_write" -> ());
  Log.crash log;
  Fault.reset_all ();
  (* Half the staged bytes hit the segment, inside the zeros already
     filled ahead of the data: a torn tail, not corruption.  Load
     truncates it back to the forced prefix. *)
  Alcotest.(check bool) "the half frame landed in the zero tail" true
    (file_size (first_seg dir) > Log.appended_bytes log);
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "torn tail truncated" 1 (Log.length log2);
  Alcotest.(check int) "a torn tail is not corruption" 0 (Log.corrupt_dropped log2);
  Alcotest.(check int) "segment cut back to the forced frame" forced_end (file_size (first_seg dir));
  Log.close log2;
  Log.remove_dir dir

(* --- the zero-filled segment tail --- *)

(* Whether walking the framing of [path] from offset 0 lands exactly on
   its end, through frames of nonzero length only: the file holds its
   frames and nothing else. *)
let frames_exact path =
  let ic = open_in_bin path in
  let size = in_channel_length ic in
  let hdr = Bytes.create 4 in
  let rec walk off =
    off = size
    || off + 8 <= size
       && begin
            seek_in ic off;
            really_input ic hdr 0 4;
            let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
            len > 0 && walk (off + 8 + len)
          end
  in
  let exact = walk 0 in
  close_in ic;
  exact

let update i = Record.Update { tid = Asset_util.Id.Tid.of_int i; oid = oid i; before = None; after = vi i }

(* Forces fill the segment with zeros ahead of its data, and a power
   loss leaves that tail on disk: load must read it as the clean end
   of the log, not as frames. *)
let test_crash_over_zero_tail () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  for i = 1 to 6 do
    Log.append log (update i) |> ignore;
    if i mod 2 = 0 then Log.force log
  done;
  let forced_end = Log.appended_bytes log in
  Log.append log (update 7) |> ignore;
  Log.crash log;
  Alcotest.(check bool) "a zero tail past the data" true (file_size (first_seg dir) > forced_end);
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "exactly the forced records" 6 (Log.length log2);
  Alcotest.(check int) "the zero tail is not corruption" 0 (Log.corrupt_dropped log2);
  (* The recovered log appends over a segment cut back to its data. *)
  Log.append log2 (update 8) |> ignore;
  Log.force log2;
  Log.crash log2;
  let log3 = Log.load_dir dir in
  Alcotest.(check int) "post-recovery append survives" 7 (Log.length log3);
  Alcotest.(check int) "reload is clean" 0 (Log.corrupt_dropped log3);
  Log.close log3;
  Log.remove_dir dir

(* A bit flip in a segment a power loss left with its zero tail: the
   damaged frame and the two complete frames after it are dropped, and
   the count stops at the zeros — the same count as over a segment that
   ends at its last frame. *)
let test_bit_flip_before_zero_tail () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  for i = 1 to 6 do
    Log.append log (update i) |> ignore
  done;
  Log.force log;
  Log.crash log;
  flip_body (first_seg dir) ~index:3;
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "good prefix survives" 3 (Log.length log2);
  Alcotest.(check int) "the damaged frame and the two after it" 3 (Log.corrupt_dropped log2);
  Log.close log2;
  Log.remove_dir dir

(* Zeros in the middle of a segment are damage, not the end of the
   log: a zeroed third frame with valid frames after it condemns them
   as corruption.  The count walks the untrusted framing as it always
   did, so it reads each 8-byte run of zeros as one empty frame and
   need not land on the frames behind them. *)
let test_zeroed_header_mid_segment () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  write_sample_log dir 6;
  let fd = Unix.openfile (first_seg dir) [ Unix.O_RDWR ] 0o644 in
  let hdr = Bytes.create 4 in
  let off = ref 0 in
  for _ = 1 to 2 do
    ignore (Unix.lseek fd !off Unix.SEEK_SET);
    ignore (Unix.read fd hdr 0 4);
    off := !off + 8 + Int32.to_int (Bytes.get_int32_le hdr 0)
  done;
  ignore (Unix.lseek fd !off Unix.SEEK_SET);
  ignore (Unix.read fd hdr 0 4);
  let frame = 8 + Int32.to_int (Bytes.get_int32_le hdr 0) in
  ignore (Unix.lseek fd !off Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make frame '\000') 0 frame);
  Unix.close fd;
  let log = Log.load_dir dir in
  Alcotest.(check int) "the prefix before the zeros survives" 2 (Log.length log);
  Alcotest.(check bool) "the zeroed frame and what follows count as dropped" true
    (Log.corrupt_dropped log > 0);
  Log.close log;
  Log.remove_dir dir

(* Rotation and close cut the zero tail: every sealed segment, and the
   last one once closed, holds exactly its frames, so a reload's
   on-disk byte count matches what was appended. *)
let test_sealed_segments_hold_their_frames () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir ~segment_bytes:512 dir in
  for i = 1 to 40 do
    Log.append log (update i) |> ignore;
    Log.force log
  done;
  Alcotest.(check bool) "rotated" true (Log.segment_count log >= 3);
  let segs () =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".wal")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let sealed = List.rev (List.tl (List.rev (segs ()))) in
  List.iter (fun f -> Alcotest.(check bool) (f ^ ": sealed, frames only") true (frames_exact f)) sealed;
  let appended = Log.appended_bytes log in
  Log.close log;
  List.iter (fun f -> Alcotest.(check bool) (f ^ ": closed, frames only") true (frames_exact f)) (segs ());
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "on-disk bytes = appended bytes" appended (Log.appended_bytes log2);
  Alcotest.(check int) "every record" 40 (Log.length log2);
  Log.close log2;
  Log.remove_dir dir

(* A Disk_full budget on wal.append meters frames: the zeros filled
   ahead of the data are not frames and never spend it. *)
let test_disk_full_counts_frames_not_fill () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  let frame = 8 + String.length (Record.encode (update 1)) in
  Fault.arm (Fault.register "wal.append") (Fault.Disk_full (3 * frame));
  let accepted = ref 0 in
  for i = 1 to 5 do
    match Log.append log (update i) with
    | _ ->
        incr accepted;
        Log.force log
    | exception Fault.Storage_error ("wal.append", _) -> ()
  done;
  Alcotest.(check int) "whole frames within the budget" 3 !accepted;
  Log.close log;
  Fault.reset_all ();
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "exactly the accepted frames" 3 (Log.length log2);
  Alcotest.(check int) "no torn frame" 0 (Log.corrupt_dropped log2);
  Log.close log2;
  Log.remove_dir dir

(* The fill's own failpoints: a crash before the fill, and a fill torn
   part-way, both lose only the unforced batch. *)
let test_crash_in_fill () =
  List.iter
    (fun site ->
      Fault.reset_all ();
      let dir = tmp "wal" in
      let log = Log.create_dir ~segment_bytes:256 dir in
      (* Every segment's first drain fills it; the second fill is the
         successor segment's. *)
      Fault.arm (Fault.register site) (Fault.Crash_nth 2);
      let forced = ref 0 in
      (try
         for i = 1 to 40 do
           Log.append log (update i) |> ignore;
           Log.force log;
           forced := i
         done;
         Alcotest.failf "%s never fired" site
       with Fault.Crash s when s = site -> ());
      Log.crash log;
      Fault.reset_all ();
      let log2 = Log.load_dir dir in
      Alcotest.(check bool) (site ^ ": crashed after a rotation") true (!forced > 1);
      Alcotest.(check int) (site ^ ": every forced record") !forced (Log.length log2);
      Alcotest.(check int) (site ^ ": nothing dropped") 0 (Log.corrupt_dropped log2);
      Log.close log2;
      Log.remove_dir dir)
    [ "wal.extend"; "wal.torn_extend" ]

(* --- torn checkpoint frame --- *)

(* A torn write of a checkpoint's frame: loading drops the frame, and
   recovery rebuilds the store from the previous checkpoint and the
   records after it. *)
let test_torn_checkpoint_frame () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  let store = Heap_store.store () in
  Heap_store.populate store ~n:8 ~value:vi;
  let anchor = Recovery.checkpoint log store ~active:[] in
  let t = Asset_util.Id.Tid.of_int 1 in
  ignore (Log.append log (Record.Update { tid = t; oid = oid 1; before = Some (vi 1); after = vi 100 }));
  ignore (Log.append log (Record.Commit [ t ]));
  Log.force log;
  Store.write store (oid 1) (vi 100);
  Fault.arm (Fault.register "wal.torn_write") Fault.Crash_once;
  (match Recovery.checkpoint log store ~active:[] with
  | _ -> Alcotest.fail "expected Crash"
  | exception Fault.Crash "wal.torn_write" -> ());
  Fault.reset_all ();
  Log.crash log;
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "the torn frame is gone" (anchor + 3) (Log.length log2);
  let rebuilt = Heap_store.store () in
  let report = Recovery.recover log2 rebuilt in
  Alcotest.(check int) "anchored at the previous checkpoint" anchor report.Recovery.scanned_from;
  Alcotest.(check bool) "rebuilt store matches" true (Store.equal_content store rebuilt);
  Log.close log2;
  Log.remove_dir dir

(* A bit flip in the newest checkpoint's frame after retirement
   deleted the segments below it: the checkpoint no longer loads and
   nothing older survives, so recovery refuses the log instead of
   rebuilding a store that lacks the retired prefix's objects. *)
let test_corrupt_checkpoint_after_retirement () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir ~segment_bytes:256 dir in
  let store = Heap_store.store () in
  Heap_store.populate store ~n:8 ~value:vi;
  ignore (Recovery.checkpoint log store ~active:[]);
  for i = 1 to 12 do
    let t = Asset_util.Id.Tid.of_int i in
    let o = oid (1 + (i mod 8)) in
    ignore (Log.append log (Record.Update { tid = t; oid = o; before = Store.read store o; after = vi (100 + i) }));
    ignore (Log.append log (Record.Commit [ t ]));
    Store.write store o (vi (100 + i))
  done;
  Log.force log;
  let anchor = Recovery.checkpoint log store ~active:[] in
  Alcotest.(check bool) "segments retired" true (Log.segments_retired log > 0);
  Log.close log;
  (* The checkpoint's segment: the live one with the highest base at or
     below its LSN. *)
  let base, file =
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun f ->
           Scanf.sscanf_opt f "seg-%d.wal%!" (fun base -> if base <= anchor then Some (base, f) else None)
           |> Option.join)
    |> List.fold_left (fun acc s -> if fst s > fst acc then s else acc) (-1, "")
  in
  flip_body (Filename.concat dir file) ~index:(anchor - base);
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "the checkpoint frame is dropped" 1 (Log.corrupt_dropped log2);
  Alcotest.(check bool) "the prefix is retired" true (Log.start_lsn log2 > 0);
  let rebuilt = Heap_store.store () in
  Store.write rebuilt (oid 99) (vi 99);
  (match Recovery.recover log2 rebuilt with
  | _ -> Alcotest.fail "expected Storage_error"
  | exception Fault.Storage_error ("recovery", Failure _) -> ());
  Alcotest.(check (option int)) "the store is untouched" (Some 99)
    (Option.map Value.to_int (Store.read rebuilt (oid 99)));
  Log.close log2;
  Log.remove_dir dir

(* --- a failed WAL write --- *)

(* The drain's write fails under a staged commit.  The frames never
   reached the file, so the commit is not acknowledged, [forced_lsn]
   stays below its record, every later force fails too, and the log
   loaded after a crash agrees. *)
let test_failed_write_acknowledges_nothing () =
  Fault.reset_all ();
  let dir = tmp "wal" in
  let log = Log.create_dir dir in
  let db = E.create ~log (Heap_store.store ()) in
  let commit value =
    let acked = ref false in
    let outcome =
      R.run db (fun () ->
          let t = E.initiate db (fun () -> E.write db (oid 1) (vi value)) in
          ignore (E.begin_ db t);
          acked := E.commit db t)
    in
    (outcome.R.result, !acked)
  in
  (match commit 1 with
  | Ok (), true -> ()
  | _ -> Alcotest.fail "the first commit is acknowledged");
  let durable = Log.forced_lsn log in
  Fault.arm (Fault.register "wal.write") Fault.Fail_once;
  (match commit 2 with
  | Error (Fault.Storage_error ("wal.write", _)), false -> ()
  | Error e, _ -> Alcotest.failf "unexpected failure: %s" (Printexc.to_string e)
  | Ok (), _ -> Alcotest.fail "expected the force to fail");
  let commit_lsn =
    Log.fold log ~init:(-1) ~f:(fun acc lsn r -> match r with Record.Commit _ -> lsn | _ -> acc)
  in
  Alcotest.(check bool) "the second commit was logged" true (commit_lsn > durable);
  Alcotest.(check int) "forced_lsn did not move" durable (Log.forced_lsn log);
  (match Log.force log with
  | () -> Alcotest.fail "a failed log must not force again"
  | exception Fault.Storage_error _ -> ());
  Alcotest.(check int) "still not forced" durable (Log.forced_lsn log);
  Log.crash log;
  let log2 = Log.load_dir dir in
  Alcotest.(check int) "the file ends at the forced records" (durable + 1) (Log.length log2);
  Log.close log2;
  Log.remove_dir dir

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
          Alcotest.test_case "oversized record refused" `Quick test_oversized_record_refused;
        ] );
      ( "wal_crc",
        [
          Alcotest.test_case "bit flip detected" `Quick test_crc_detects_bit_flip;
          Alcotest.test_case "dropped count in report" `Quick test_crc_dropped_in_recovery_report;
          Alcotest.test_case "clean log drops nothing" `Quick test_clean_log_drops_nothing;
          Alcotest.test_case "bit flip before the zero tail" `Quick test_bit_flip_before_zero_tail;
          Alcotest.test_case "zeroed header mid-segment" `Quick test_zeroed_header_mid_segment;
          Alcotest.test_case "sealed segments hold their frames" `Quick
            test_sealed_segments_hold_their_frames;
          Alcotest.test_case "disk full counts frames, not fill" `Quick
            test_disk_full_counts_frames_not_fill;
        ] );
      ( "power_loss",
        [
          Alcotest.test_case "crash discards staging" `Quick test_log_crash_discards_staging;
          Alcotest.test_case "torn WAL write truncated" `Quick test_torn_wal_write_truncated;
          Alcotest.test_case "crash over the zero tail" `Quick test_crash_over_zero_tail;
          Alcotest.test_case "crash in the zero fill" `Quick test_crash_in_fill;
          Alcotest.test_case "torn checkpoint frame" `Quick test_torn_checkpoint_frame;
          Alcotest.test_case "corrupt checkpoint after retirement" `Quick
            test_corrupt_checkpoint_after_retirement;
          Alcotest.test_case "failed write acknowledges nothing" `Quick
            test_failed_write_acknowledges_nothing;
        ] );
      ( "engine",
        [
          Alcotest.test_case "injected WAL failure aborts txn" `Quick
            test_injected_wal_failure_aborts_txn;
        ] );
    ]
