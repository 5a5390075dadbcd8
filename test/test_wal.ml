(* Tests for the write-ahead log: record codec, the log itself (memory
   and segment-directory sinks, torn-tail handling, the manifest) and recovery — including the
   delegation-aware responsibility attribution that ASSET requires. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap = Asset_storage.Heap_store
module Record = Asset_wal.Record
module Log = Asset_wal.Log
module Recovery = Asset_wal.Recovery

let tid = Tid.of_int
let oid = Oid.of_int
let vi = Value.of_int

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "asset_wal_%d_%d.d" (Unix.getpid ()) !n)

(* The first segment of a directory log: the whole log while nothing
   has rotated. *)
let first_seg dir = Filename.concat dir "seg-000000000000.wal"

(* ------------------------------------------------------------------ *)
(* Record codec                                                        *)

let sample_records =
  [
    Record.Begin (tid 1);
    Record.Update { tid = tid 1; oid = oid 2; before = None; after = vi 10 };
    Record.Update { tid = tid 1; oid = oid 2; before = Some (vi 10); after = vi 20 };
    Record.Commit [ tid 1 ];
    Record.Commit [ tid 1; tid 2; tid 3 ];
    Record.Abort (tid 9);
    Record.Delegate { from_ = tid 1; to_ = tid 2; oids = None };
    Record.Delegate { from_ = tid 1; to_ = tid 2; oids = Some [ oid 1; oid 5 ] };
    Record.Clr { tid = tid 3; oid = oid 4; image = Some (vi 8); undo_lsn = 12 };
    Record.Clr { tid = tid 3; oid = oid 4; image = None; undo_lsn = 0 };
    Record.Increment { tid = tid 2; oid = oid 3; delta = -4; after = vi 6 };
    Record.Enqueue { tid = tid 2; oid = oid 7; item = "job-1" };
    Record.Checkpoint { active = []; image = [] };
    Record.Checkpoint
      {
        active =
          [
            { att_tid = tid 4; att_updates = [] };
            {
              att_tid = tid 5;
              att_updates =
                [
                  { cu_lsn = 7; cu_oid = oid 2; cu_undo = Record.Ckpt_physical (Some (vi 1)) };
                  { cu_lsn = 8; cu_oid = oid 3; cu_undo = Record.Ckpt_physical None };
                  { cu_lsn = 9; cu_oid = oid 4; cu_undo = Record.Ckpt_delta (-3) };
                  { cu_lsn = 10; cu_oid = oid 5; cu_undo = Record.Ckpt_dequeue "job-1" };
                ];
            };
          ];
        image = [ (oid 2, vi 1); (oid 7, Value.of_queue [ "job-1"; "job-2" ]) ];
      };
  ]

let record_equal a b = Record.encode a = Record.encode b

let test_codec_roundtrip () =
  List.iter
    (fun r ->
      let decoded = Record.decode (Record.encode r) in
      Alcotest.(check bool)
        (Format.asprintf "roundtrip %a" Record.pp r)
        true (record_equal r decoded))
    sample_records

let test_codec_rejects_garbage () =
  (match Record.decode "" with
  | exception Record.Corrupt _ -> ()
  | _ -> Alcotest.fail "empty accepted");
  match Record.decode "\255garbage" with
  | exception Record.Corrupt _ -> ()
  | _ -> Alcotest.fail "bad tag accepted"

(* Retired tags stay retired: a well-formed body in an old layout —
   the earlier Enqueues (tag 9: tid, oid, item, after image; tag 12:
   tid, oid, item, optional queue image), Begin_ckpts (tag 10: entries
   carrying an after image; tag 13: entries plus dirty oids) and
   End_ckpt (tag 11: the begin LSN) — decodes as [Corrupt], never as a
   record of the current layout. *)
let test_codec_rejects_retired_tags () =
  let body tag words =
    let b = Buffer.create 64 in
    Buffer.add_char b (Char.chr tag);
    List.iter
      (function
        | `I i ->
            let w = Bytes.create 8 in
            Bytes.set_int64_le w 0 (Int64.of_int i);
            Buffer.add_bytes b w
        | `S s ->
            let w = Bytes.create 8 in
            Bytes.set_int64_le w 0 (Int64.of_int (String.length s));
            Buffer.add_bytes b w;
            Buffer.add_string b s)
      words;
    Buffer.contents b
  in
  let old_enqueue = body 9 [ `I 2; `I 7; `S "job-1"; `S (Value.to_string (Value.of_queue [ "job-1" ])) ] in
  (* One active entry, one update: lsn, oid, undo kind 3 (dequeue), item, after; no dirty oids. *)
  let old_begin_ckpt =
    body 10 [ `I 1; `I 5; `I 1; `I 10; `I 5; `I 3; `S "job-1"; `S "after"; `I 0 ]
  in
  let enqueue_with_image = body 12 [ `I 2; `I 7; `S "job-1"; `I 0 ] in
  let begin_ckpt_with_dirty = body 13 [ `I 1; `I 5; `I 0; `I 1; `I 3 ] in
  let end_ckpt = body 11 [ `I 13 ] in
  List.iter
    (fun (name, data) ->
      match Record.decode data with
      | exception Record.Corrupt _ -> ()
      | r -> Alcotest.failf "%s decoded as %a" name Record.pp r)
    [
      ("tag 9 (old Enqueue)", old_enqueue);
      ("tag 10 (old Begin_ckpt)", old_begin_ckpt);
      ("tag 11 (End_ckpt)", end_ckpt);
      ("tag 12 (Enqueue with an image)", enqueue_with_image);
      ("tag 13 (Begin_ckpt with dirty oids)", begin_ckpt_with_dirty);
    ]

(* Decoding arbitrary bytes must either produce a record or raise
   [Corrupt] — never crash or loop. *)
let prop_decode_total =
  QCheck2.Test.make ~name:"decode is total (Corrupt or record)" ~count:1000
    QCheck2.Gen.(string_size (int_range 0 128))
    (fun data ->
      match Record.decode data with
      | _ -> true
      | exception Record.Corrupt _ -> true)

(* Mutating one byte of a valid encoding must not crash the decoder. *)
let prop_decode_survives_bitflips =
  QCheck2.Test.make ~name:"decode survives single-byte corruption" ~count:500
    QCheck2.Gen.(pair (int_range 0 200) (int_range 0 255))
    (fun (pos, byte) ->
      List.for_all
        (fun r ->
          let enc = Bytes.of_string (Record.encode r) in
          if Bytes.length enc = 0 then true
          else begin
            Bytes.set enc (pos mod Bytes.length enc) (Char.chr byte);
            match Record.decode (Bytes.unsafe_to_string enc) with
            | _ -> true
            | exception Record.Corrupt _ -> true
          end)
        sample_records)

let prop_update_roundtrip =
  QCheck2.Test.make ~name:"update record roundtrip" ~count:300
    QCheck2.Gen.(
      tup4 (int_range 1 1000) (int_range 1 1000) (option (string_size (int_range 0 64)))
        (string_size (int_range 0 64)))
    (fun (t, o, before, after) ->
      let r =
        Record.Update
          {
            tid = tid t;
            oid = oid o;
            before = Option.map Value.of_string before;
            after = Value.of_string after;
          }
      in
      record_equal r (Record.decode (Record.encode r)))

(* ------------------------------------------------------------------ *)
(* Log                                                                 *)

let test_log_append_get () =
  let l = Log.in_memory () in
  let lsn0 = Log.append l (Record.Begin (tid 1)) in
  let lsn1 = Log.append l (Record.Abort (tid 1)) in
  Alcotest.(check int) "lsn0" 0 lsn0;
  Alcotest.(check int) "lsn1" 1 lsn1;
  Alcotest.(check int) "length" 2 (Log.length l);
  Alcotest.(check bool) "get" true (record_equal (Record.Begin (tid 1)) (Log.get l 0))

let test_log_growth () =
  let l = Log.in_memory () in
  for i = 1 to 1000 do
    ignore (Log.append l (Record.Begin (tid i)))
  done;
  Alcotest.(check int) "1000 records" 1000 (Log.length l);
  Alcotest.(check bool) "last" true (record_equal (Record.Begin (tid 1000)) (Log.get l 999))

let test_log_iter_rev_and_fold () =
  let l = Log.in_memory () in
  List.iter (fun i -> ignore (Log.append l (Record.Begin (tid i)))) [ 1; 2; 3 ];
  let seen = ref [] in
  Log.iter_rev l (fun lsn _ -> seen := lsn :: !seen);
  Alcotest.(check (list int)) "reverse order" [ 0; 1; 2 ] !seen;
  let count = Log.fold l ~init:0 ~f:(fun acc _ _ -> acc + 1) in
  Alcotest.(check int) "fold" 3 count

let test_log_in_memory_counts_as_forced () =
  (* Nothing to force: an in-memory log is durable through its last
     record, and never runs a force of its own. *)
  let l = Log.in_memory () in
  Alcotest.(check int) "empty" (-1) (Log.forced_lsn l);
  ignore (Log.append l (Record.Begin (tid 1)));
  Alcotest.(check int) "through the begin" 0 (Log.forced_lsn l);
  ignore (Log.append l (Record.Commit [ tid 1 ]));
  Alcotest.(check int) "through the commit" 1 (Log.forced_lsn l);
  Alcotest.(check int) "no forces" 0 (Log.force_count l)

let test_log_file_roundtrip () =
  let dir = tmp_dir () in
  let l = Log.create_dir dir in
  List.iter (fun r -> ignore (Log.append l r)) sample_records;
  Log.force l;
  Log.close l;
  let l2 = Log.load_dir dir in
  Alcotest.(check int) "all records" (List.length sample_records) (Log.length l2);
  List.iteri
    (fun i r -> Alcotest.(check bool) "record" true (record_equal r (Log.get l2 i)))
    sample_records;
  Log.close l2;
  Log.remove_dir dir

let test_log_load_stops_at_torn_tail () =
  let dir = tmp_dir () in
  let l = Log.create_dir dir in
  ignore (Log.append l (Record.Begin (tid 1)));
  ignore (Log.append l (Record.Abort (tid 1)));
  Log.force l;
  Log.close l;
  (* Append a torn frame: a length header promising more bytes than
     exist. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (first_seg dir) in
  output_string oc "\xff\x00\x00\x00partial";
  close_out oc;
  let l2 = Log.load_dir dir in
  Alcotest.(check int) "torn tail dropped" 2 (Log.length l2);
  Log.close l2;
  Log.remove_dir dir

let count_records dir =
  (* Re-scan the directory through a fresh load: what a post-crash
     recovery would actually see. *)
  let l = Log.load_dir dir in
  let n = Log.length l in
  Log.close l;
  n

let test_log_unforced_commit_then_force () =
  (* Appending a commit record to a directory log does not force it;
     an explicit [force] then makes everything durable at once. *)
  let dir = tmp_dir () in
  let l = Log.create_dir dir in
  ignore (Log.append l (Record.Begin (tid 1)));
  ignore (Log.append l (Record.Commit [ tid 1 ]));
  Alcotest.(check int) "not forced" (-1) (Log.forced_lsn l);
  Alcotest.(check int) "no forces yet" 0 (Log.force_count l);
  Log.force l;
  Alcotest.(check int) "forced through commit" 1 (Log.forced_lsn l);
  Alcotest.(check int) "one force" 1 (Log.force_count l);
  Alcotest.(check int) "both records on disk" 2 (count_records dir);
  Log.close l;
  Log.remove_dir dir

let test_log_force_count_coalesces () =
  (* K staged commits + one force = one fsync, not K. *)
  let dir = tmp_dir () in
  let l = Log.create_dir dir in
  for i = 1 to 8 do
    ignore (Log.append l (Record.Commit [ tid i ]))
  done;
  Log.force l;
  Alcotest.(check int) "one force for 8 commits" 1 (Log.force_count l);
  Alcotest.(check int) "all durable" 8 (count_records dir);
  Log.close l;
  Log.remove_dir dir

let test_log_load_reopens_for_append () =
  (* A loaded log must accept (and durably force) further appends —
     the restart path: recover, then keep running. *)
  let dir = tmp_dir () in
  let l = Log.create_dir dir in
  ignore (Log.append l (Record.Begin (tid 1)));
  ignore (Log.append l (Record.Commit [ tid 1 ]));
  Log.close l;
  let l2 = Log.load_dir dir in
  ignore (Log.append l2 (Record.Begin (tid 2)));
  ignore (Log.append l2 (Record.Commit [ tid 2 ]));
  Log.close l2;
  Alcotest.(check int) "old + new records" 4 (count_records dir);
  Log.remove_dir dir

let test_log_load_truncates_torn_tail_before_append () =
  (* Garbage after the last complete record must not end up between
     old and new records: load truncates the torn tail, so an append
     after recovery leaves a clean log. *)
  let dir = tmp_dir () in
  let l = Log.create_dir dir in
  ignore (Log.append l (Record.Begin (tid 1)));
  Log.force l;
  Log.close l;
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (first_seg dir) in
  output_string oc "\x00\x00\x00\x09partial";
  close_out oc;
  let l2 = Log.load_dir dir in
  Alcotest.(check int) "tail dropped" 1 (Log.length l2);
  ignore (Log.append l2 (Record.Commit [ tid 1 ]));
  Log.close l2;
  Alcotest.(check int) "clean after post-recovery append" 2 (count_records dir);
  Log.remove_dir dir

(* ------------------------------------------------------------------ *)
(* Segment directories                                                 *)

let test_seg_rotation_roundtrip () =
  (* Tiny segments force many rotations; a reload must see every
     record in order across the segment boundaries. *)
  let dir = tmp_dir () in
  let l = Log.create_dir ~segment_bytes:64 dir in
  let records = List.init 30 (fun i -> Record.Begin (tid (i + 1))) in
  List.iter (fun r -> ignore (Log.append l r)) records;
  Log.force l;
  Alcotest.(check bool) "rotated" true (Log.segment_count l > 1);
  Log.close l;
  let l2 = Log.load_dir dir in
  Alcotest.(check int) "all records" 30 (Log.length l2);
  Alcotest.(check int) "starts at 0" 0 (Log.start_lsn l2);
  List.iteri
    (fun i r -> Alcotest.(check bool) "record" true (record_equal r (Log.get l2 i)))
    records;
  (* A reloaded directory log keeps rotating and accepting appends. *)
  ignore (Log.append l2 (Record.Commit [ tid 99 ]));
  Log.close l2;
  let l3 = Log.load_dir dir in
  Alcotest.(check int) "post-reload append durable" 31 (Log.length l3);
  Log.close l3;
  Log.remove_dir dir

let test_seg_retirement () =
  let dir = tmp_dir () in
  let l = Log.create_dir ~segment_bytes:64 dir in
  for i = 1 to 30 do
    ignore (Log.append l (Record.Begin (tid i)))
  done;
  Log.force l;
  let live_before = Log.segment_count l in
  let retired = Log.retire l ~below:(Log.length l) in
  Alcotest.(check bool) "segments deleted" true (retired > 0);
  Alcotest.(check int) "only the open segment lives" (live_before - retired) (Log.segment_count l);
  Alcotest.(check int) "counter" retired (Log.segments_retired l);
  (* Idempotent: the same watermark retires nothing further. *)
  Alcotest.(check int) "re-retire is a no-op" 0 (Log.retire l ~below:(Log.length l));
  (* Disk-only: every record is still resolvable in memory. *)
  Alcotest.(check bool) "get 0 after retire" true (record_equal (Record.Begin (tid 1)) (Log.get l 0));
  Log.close l;
  (* A reload starts at the first surviving LSN and keeps the tail. *)
  let l2 = Log.load_dir dir in
  Alcotest.(check bool) "start advanced" true (Log.start_lsn l2 > 0);
  Alcotest.(check int) "length preserved" 30 (Log.length l2);
  Alcotest.(check bool) "tail record"
    true
    (record_equal (Record.Begin (tid 30)) (Log.get l2 29));
  Alcotest.(check int) "retired count persisted" retired (Log.segments_retired l2);
  Log.close l2;
  Log.remove_dir dir

let test_seg_orphan_sweep () =
  (* A segment file the manifest does not name — the signature of a
     crash between retirement's manifest write and unlink, or between
     rotation's file creation and manifest write — is deleted on load. *)
  let dir = tmp_dir () in
  let l = Log.create_dir ~segment_bytes:64 dir in
  for i = 1 to 10 do
    ignore (Log.append l (Record.Begin (tid i)))
  done;
  Log.force l;
  Log.close l;
  let orphan = Filename.concat dir "seg-000999999999.wal" in
  let oc = open_out_bin orphan in
  output_string oc "stale bytes";
  close_out oc;
  let l2 = Log.load_dir dir in
  Alcotest.(check bool) "orphan deleted" false (Sys.file_exists orphan);
  Alcotest.(check int) "live records intact" 10 (Log.length l2);
  (* Loading again changes nothing. *)
  Log.close l2;
  let l3 = Log.load_dir dir in
  Alcotest.(check int) "idempotent load" 10 (Log.length l3);
  Log.close l3;
  Log.remove_dir dir

let test_seg_torn_tail () =
  let dir = tmp_dir () in
  let l = Log.create_dir ~segment_bytes:4096 dir in
  ignore (Log.append l (Record.Begin (tid 1)));
  ignore (Log.append l (Record.Commit [ tid 1 ]));
  Log.close l;
  (* Tear the live segment's tail. *)
  let seg =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".wal")
    |> List.sort compare |> List.rev |> List.hd
  in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 (Filename.concat dir seg) in
  output_string oc "\xff\x00\x00\x00partial";
  close_out oc;
  let l2 = Log.load_dir dir in
  Alcotest.(check int) "torn tail dropped" 2 (Log.length l2);
  Alcotest.(check int) "not corruption" 0 (Log.corrupt_dropped l2);
  ignore (Log.append l2 (Record.Begin (tid 2)));
  Log.close l2;
  let l3 = Log.load_dir dir in
  Alcotest.(check int) "clean after post-recovery append" 3 (Log.length l3);
  Log.close l3;
  Log.remove_dir dir

let test_seg_disk_full () =
  (* A Disk_full budget on wal.append refuses whole frames before any
     byte is staged: the failure surfaces as Storage_error, stays (a
     full disk stays full), and the segment is never torn. *)
  let dir = tmp_dir () in
  Asset_fault.Fault.reset_all ();
  let l = Log.create_dir ~segment_bytes:4096 dir in
  for i = 1 to 5 do
    ignore (Log.append l (Record.Begin (tid i)))
  done;
  Log.force l;
  ignore (Asset_fault.Fault.arm_name "wal.append" (Asset_fault.Fault.Disk_full 0));
  (match Log.append l (Record.Begin (tid 6)) with
  | exception Asset_fault.Fault.Storage_error _ -> ()
  | _ -> Alcotest.fail "append on a full disk succeeded");
  (match Log.append l (Record.Begin (tid 7)) with
  | exception Asset_fault.Fault.Storage_error _ -> ()
  | _ -> Alcotest.fail "disk became un-full on its own");
  Asset_fault.Fault.reset_all ();
  Alcotest.(check int) "no frame staged" 5 (Log.length l);
  Log.close l;
  let l2 = Log.load_dir dir in
  Alcotest.(check int) "clean log on disk" 5 (Log.length l2);
  Alcotest.(check int) "no corruption" 0 (Log.corrupt_dropped l2);
  Log.close l2;
  Log.remove_dir dir

let test_seg_bad_manifest () =
  (* A manifest this module did not write — a malformed number or a
     foreign magic line — is refused with the typed exception, not a
     stray [Failure] from number parsing. *)
  let with_manifest body =
    let dir = tmp_dir () in
    Log.close (Log.create_dir dir);
    let oc = open_out_bin (Filename.concat dir "MANIFEST") in
    output_string oc body;
    close_out oc;
    Fun.protect
      ~finally:(fun () -> Log.remove_dir dir)
      (fun () ->
        match Log.load_dir dir with
        | exception Log.Bad_manifest _ -> ()
        | l ->
            Log.close l;
            Alcotest.failf "loaded a manifest reading %S" body)
  in
  with_manifest "asset-wal v1\nlimit x\nretired 0\nseg 0 seg-000000000000.wal\n";
  with_manifest "not-a-wal v9\nlimit 64\n"

(* ------------------------------------------------------------------ *)
(* Recovery                                                            *)

let store_with pairs =
  let s = Heap.store () in
  List.iter (fun (o, v) -> Store.write s (oid o) (vi v)) pairs;
  s

(* A log whose first record is a checkpoint with the given image: the
   baseline recovery rebuilds from.  The store a test recovers into
   holds whatever it held at the crash; recovery discards it. *)
let log_from image =
  let log = Log.in_memory () in
  ignore (Log.append log (Record.Checkpoint { active = []; image }));
  log

let log_from_ints pairs = log_from (List.map (fun (o, v) -> (oid o, vi v)) pairs)

let geti s o = Value.to_int (Store.read_exn s (oid o))

let test_recovery_redo_winner () =
  let log = log_from_ints [ (1, 0) ] in
  ignore (Log.append log (Record.Begin (tid 1)));
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  let s = store_with [ (1, 0) ] in
  let report = Recovery.recover log s in
  Alcotest.(check int) "winner redone" 5 (geti s 1);
  Alcotest.(check int) "one winner" 1 (List.length report.Recovery.winners);
  Alcotest.(check int) "no losers" 0 (List.length report.Recovery.losers)

let test_recovery_undo_loser () =
  let log = log_from_ints [ (1, 0) ] in
  ignore (Log.append log (Record.Begin (tid 1)));
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  (* No commit: in-flight at the crash, its write in the store. *)
  let s = store_with [ (1, 5) ] in
  let report = Recovery.recover log s in
  Alcotest.(check int) "loser undone" 0 (geti s 1);
  Alcotest.(check (list int)) "loser" [ 1 ] (List.map Tid.to_int report.Recovery.losers)

let test_recovery_loser_created_object_deleted () =
  let log = log_from [] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 7; before = None; after = vi 1 }));
  let s = store_with [ (7, 1) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check bool) "created object removed" false (Store.exists s (oid 7))

(* An engine-side abort logs CLRs and an Abort record; recovery redoes
   the CLRs (the undo) and does not undo the transaction again. *)
let test_recovery_resolved_abort_replays_clrs () =
  let log = log_from_ints [ (1, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 9 }));
  ignore (Log.append log (Record.Clr { tid = tid 1; oid = oid 1; image = Some (vi 0); undo_lsn = 1 }));
  ignore (Log.append log (Record.Abort (tid 1)));
  let s = store_with [ (1, 9) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "aborted txn undone via CLR" 0 (geti s 1)

(* The scenario that motivates CLRs: a loser aborts (undo applied and
   logged), then a winner writes the same object.  Recovery must leave
   the winner's value, not re-install the loser's before image. *)
let test_recovery_aborted_then_winner_same_object () =
  let log = log_from_ints [ (1, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 9 }));
  ignore (Log.append log (Record.Clr { tid = tid 1; oid = oid 1; image = Some (vi 0); undo_lsn = 1 }));
  ignore (Log.append log (Record.Abort (tid 1)));
  ignore (Log.append log (Record.Update { tid = tid 2; oid = oid 1; before = Some (vi 0); after = vi 42 }));
  ignore (Log.append log (Record.Commit [ tid 2 ]));
  let s = store_with [ (1, 0) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "winner value survives prior abort" 42 (geti s 1)

(* Crash *mid*-abort: some CLRs reached the disk but the Abort record
   did not, so the transaction is an unresolved loser.  The CLR
   back-links mark how far the crashed abort got; recovery must undo
   only the uncompensated remainder.  Re-undoing a compensated
   *logical* update (delta, dequeue) would double-apply it and corrupt
   a concurrent committer's commuting update — the DESIGN.md §12
   window. *)
let test_recovery_crashed_abort_skips_compensated_suffix () =
  let vq = Value.of_queue in
  let log = log_from [ (oid 1, vi 100); (oid 2, vq []) ] in
  (* Winner t1: increment counter by 5, enqueue "dup" on the audit log. *)
  ignore
    (Log.append log (Record.Increment { tid = tid 1; oid = oid 1; delta = 5; after = vi 105 }));
  ignore
    (Log.append log
       (Record.Enqueue { tid = tid 1; oid = oid 2; item = "dup" }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  (* Loser t2: the same commuting shape on the same objects. *)
  let inc_lsn =
    Log.append log (Record.Increment { tid = tid 2; oid = oid 1; delta = 7; after = vi 112 })
  in
  let enq_lsn =
    Log.append log
      (Record.Enqueue { tid = tid 2; oid = oid 2; item = "dup" })
  in
  (* The abort undoes newest-first: both CLRs persisted, then power
     loss before the Abort record. *)
  ignore
    (Log.append log
       (Record.Clr { tid = tid 2; oid = oid 2; image = Some (vq [ "dup" ]); undo_lsn = enq_lsn }));
  ignore
    (Log.append log
       (Record.Clr { tid = tid 2; oid = oid 1; image = Some (vi 105); undo_lsn = inc_lsn }));
  let s = store_with [ (1, 112) ] in
  Store.write s (oid 2) (vq [ "dup" ]);
  ignore (Recovery.recover log s);
  Alcotest.(check int) "winner's delta survives exactly once" 105 (geti s 1);
  Alcotest.(check (list string))
    "winner's item survives exactly once" [ "dup" ]
    (Value.to_queue (Store.read_exn s (oid 2)))

(* The same crash one record earlier: only the first CLR (the enqueue's
   undo) persisted.  Recovery replays that CLR and must still undo the
   uncompensated increment itself — skipping compensated LSNs must not
   turn into skipping the whole transaction. *)
let test_recovery_crashed_abort_undoes_uncompensated_prefix () =
  let vq = Value.of_queue in
  let log = log_from [ (oid 1, vi 100); (oid 2, vq []) ] in
  ignore
    (Log.append log (Record.Increment { tid = tid 1; oid = oid 1; delta = 5; after = vi 105 }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  ignore
    (Log.append log (Record.Increment { tid = tid 2; oid = oid 1; delta = 7; after = vi 112 }));
  let enq_lsn =
    Log.append log
      (Record.Enqueue { tid = tid 2; oid = oid 2; item = "x" })
  in
  ignore
    (Log.append log
       (Record.Clr { tid = tid 2; oid = oid 2; image = Some (vq []); undo_lsn = enq_lsn }));
  let s = store_with [ (1, 112) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "uncompensated increment undone once" 105 (geti s 1);
  Alcotest.(check (list string))
    "compensated enqueue not re-undone" []
    (Value.to_queue (Store.read_exn s (oid 2)))

let test_recovery_interleaved_repeat_history () =
  (* t1 and t2 interleave on distinct objects; t1 commits, t2 does not.
     Whatever the store held at the crash, recovery must converge. *)
  let log = log_from_ints [ (1, 0); (2, 0); (3, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 11 }));
  ignore (Log.append log (Record.Update { tid = tid 2; oid = oid 2; before = Some (vi 0); after = vi 22 }));
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 3; before = Some (vi 0); after = vi 33 }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  (* The store at the crash: t2's write and half of t1's. *)
  let s = store_with [ (1, 0); (2, 22); (3, 33) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "t1.ob1" 11 (geti s 1);
  Alcotest.(check int) "t2.ob2 undone" 0 (geti s 2);
  Alcotest.(check int) "t1.ob3" 33 (geti s 3)

(* The ASSET-specific case: updates delegated to a committed
   transaction are winner updates even though their original performer
   never committed. *)
let test_recovery_delegated_to_winner () =
  let log = log_from_ints [ (1, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  ignore (Log.append log (Record.Delegate { from_ = tid 1; to_ = tid 2; oids = None }));
  ignore (Log.append log (Record.Commit [ tid 2 ]));
  (* t1 never commits — but its update now belongs to t2. *)
  let s = store_with [ (1, 0) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "delegated update survives" 5 (geti s 1)

let test_recovery_delegated_from_winner_to_loser () =
  let log = log_from_ints [ (1, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  ignore (Log.append log (Record.Delegate { from_ = tid 1; to_ = tid 2; oids = None }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  (* t1 committed, but the update had been delegated to t2, which did
     not commit: the update must be undone. *)
  let s = store_with [ (1, 5) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "delegated-away update undone" 0 (geti s 1)

let test_recovery_partial_delegation_by_object () =
  let log = log_from_ints [ (1, 0); (2, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 2; before = Some (vi 0); after = vi 6 }));
  ignore (Log.append log (Record.Delegate { from_ = tid 1; to_ = tid 2; oids = Some [ oid 1 ] }));
  ignore (Log.append log (Record.Commit [ tid 2 ]));
  let s = store_with [ (1, 0); (2, 0) ] in
  ignore (Recovery.recover log s);
  Alcotest.(check int) "delegated object committed" 5 (geti s 1);
  Alcotest.(check int) "kept object undone" 0 (geti s 2)

(* Responsibility moves along a chain: part of t1's work to t2, then
   everything t2 holds — its own update and t1's delegated one — to t3,
   which commits.  The update t1 kept dies with t1.  A receiver keeps
   what it already held: loser t4 takes loser t5's update on top of its
   own, and both are undone. *)
let test_recovery_delegation_chain () =
  let log = log_from_ints [ (1, 0); (2, 0); (3, 0); (5, 0); (6, 0) ] in
  let upd t o v =
    ignore (Log.append log (Record.Update { tid = tid t; oid = oid o; before = Some (vi 0); after = vi v }))
  in
  upd 1 1 1;
  upd 1 2 2;
  ignore (Log.append log (Record.Delegate { from_ = tid 1; to_ = tid 2; oids = Some [ oid 1 ] }));
  upd 2 3 3;
  ignore (Log.append log (Record.Delegate { from_ = tid 2; to_ = tid 3; oids = None }));
  upd 4 5 5;
  upd 5 6 6;
  ignore (Log.append log (Record.Delegate { from_ = tid 5; to_ = tid 4; oids = None }));
  ignore (Log.append log (Record.Commit [ tid 3 ]));
  let s = store_with [ (1, 1); (2, 2); (3, 3); (5, 5); (6, 6) ] in
  let report = Recovery.recover log s in
  Alcotest.(check int) "delegated twice, committed" 1 (geti s 1);
  Alcotest.(check int) "kept by the loser, undone" 0 (geti s 2);
  Alcotest.(check int) "delegated once, committed" 3 (geti s 3);
  Alcotest.(check int) "receiver's own update, undone" 0 (geti s 5);
  Alcotest.(check int) "delegated to a loser, undone" 0 (geti s 6);
  Alcotest.(check int) "three updates undone" 3 report.Recovery.updates_undone

let test_recovery_group_commit_record () =
  let log = log_from_ints [ (1, 0); (2, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 1 }));
  ignore (Log.append log (Record.Update { tid = tid 2; oid = oid 2; before = Some (vi 0); after = vi 2 }));
  ignore (Log.append log (Record.Commit [ tid 1; tid 2 ]));
  let s = store_with [ (1, 0); (2, 0) ] in
  let report = Recovery.recover log s in
  Alcotest.(check int) "member 1" 1 (geti s 1);
  Alcotest.(check int) "member 2" 2 (geti s 2);
  Alcotest.(check int) "two winners" 2 (List.length report.Recovery.winners)

let test_recovery_idempotent () =
  let log = log_from_ints [ (1, 0); (2, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  ignore (Log.append log (Record.Update { tid = tid 2; oid = oid 2; before = Some (vi 0); after = vi 7 }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  let s = store_with [ (1, 0); (2, 7) ] in
  ignore (Recovery.recover log s);
  let snap1 = Store.dump s in
  ignore (Recovery.recover log s);
  let snap2 = Store.dump s in
  Alcotest.(check bool) "recover twice = recover once" true (snap1 = snap2)

let test_checkpoint_skips_prefix () =
  let log = Log.in_memory () in
  let s = store_with [ (1, 0) ] in
  ignore (Log.append log (Record.Update { tid = tid 1; oid = oid 1; before = Some (vi 0); after = vi 5 }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  Store.write s (oid 1) (vi 5);
  ignore (Recovery.checkpoint log s ~active:[]);
  ignore (Log.append log (Record.Update { tid = tid 2; oid = oid 1; before = Some (vi 5); after = vi 9 }));
  (* t2 lost; recovery from the checkpoint must see only t2. *)
  let report = Recovery.recover log s in
  Alcotest.(check int) "undone to checkpointed value" 5 (geti s 1);
  Alcotest.(check int) "only post-checkpoint records scanned" 1 report.Recovery.updates_redone

(* Enqueue redo is an append onto the store's current value, sound
   because recovery always starts from exactly the anchor's state: it
   clears the store and installs the checkpoint's image.  A log shaped
   as the engine writes it — item, checkpoint, item, CLR, item — must
   recover to the same queue whatever the store held at the crash (the
   anchor state, the final value, or a value ahead of the log with an
   uncommitted item in it); and recovering twice must change nothing. *)
let test_recovery_enqueue_append_redo () =
  let vq = Value.of_queue in
  let q = oid 1 in
  let log = Log.in_memory () in
  ignore (Log.append log (Record.Enqueue { tid = tid 1; oid = q; item = "z" }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  let anchor = Heap.store () in
  Store.write anchor q (vq [ "z" ]);
  ignore (Recovery.checkpoint log anchor ~active:[]);
  ignore (Log.append log (Record.Enqueue { tid = tid 2; oid = q; item = "a" }));
  let b_lsn = Log.append log (Record.Enqueue { tid = tid 3; oid = q; item = "b" }) in
  ignore
    (Log.append log (Record.Clr { tid = tid 3; oid = q; image = Some (vq [ "z"; "a" ]); undo_lsn = b_lsn }));
  ignore (Log.append log (Record.Abort (tid 3)));
  ignore (Log.append log (Record.Enqueue { tid = tid 4; oid = q; item = "c" }));
  ignore (Log.append log (Record.Commit [ tid 2; tid 4 ]));
  List.iter
    (fun (name, disk) ->
      let s = Heap.store () in
      Store.write s q (vq disk);
      let report = Recovery.recover log s in
      Alcotest.(check int) (name ^ ": scan starts at the anchor") 2 report.Recovery.scanned_from;
      Alcotest.(check (list string)) name [ "z"; "a"; "c" ] (Value.to_queue (Store.read_exn s q));
      ignore (Recovery.recover log s);
      Alcotest.(check (list string))
        (name ^ ", recovered twice")
        [ "z"; "a"; "c" ]
        (Value.to_queue (Store.read_exn s q)))
    [
      ("store at the anchor", [ "z" ]);
      ("store at the final value", [ "z"; "a"; "c" ]);
      ("store ahead of the log", [ "z"; "a"; "b"; "c"; "b" ]);
    ]

(* Why redo is not length-positional ("append iff the queue still has
   its pre-append length"): winner a, loser b, winner c.  The first
   recovery leaves [a; c]; a second recovery would then find the
   length matching at c's record and append c again.  Rebuilding from
   the log's start, the second recovery replays [a; b; c] and undoes b
   again. *)
let test_recovery_enqueue_winner_loser_winner () =
  let vq = Value.of_queue in
  let q = oid 1 in
  let log = Log.in_memory () in
  ignore (Log.append log (Record.Enqueue { tid = tid 1; oid = q; item = "a" }));
  ignore (Log.append log (Record.Enqueue { tid = tid 2; oid = q; item = "b" }));
  ignore (Log.append log (Record.Enqueue { tid = tid 3; oid = q; item = "c" }));
  ignore (Log.append log (Record.Commit [ tid 1 ]));
  ignore (Log.append log (Record.Commit [ tid 3 ]));
  List.iter
    (fun (name, disk) ->
      let s = Heap.store () in
      Option.iter (fun d -> Store.write s q (vq d)) disk;
      ignore (Recovery.recover log s);
      Alcotest.(check (list string)) name [ "a"; "c" ] (Value.to_queue (Store.read_exn s q));
      ignore (Recovery.recover log s);
      Alcotest.(check (list string))
        (name ^ ", recovered twice")
        [ "a"; "c" ]
        (Value.to_queue (Store.read_exn s q)))
    [ ("store without the queue", None); ("store with every append", Some [ "a"; "b"; "c" ]) ]

(* Property: random histories — every committed transaction's final
   write per object survives; every loser's effect is gone.  We build
   sequential (non-interleaved per object) histories so the expected
   final state is computable directly. *)
let prop_recovery_matches_oracle =
  QCheck2.Test.make ~name:"recovery matches oracle on random histories" ~count:150
    QCheck2.Gen.(
      list_size (int_range 1 20)
        (tup3 (int_range 1 5) (int_range 1 6) bool))
    (fun txns ->
      let log = log_from_ints (List.init 6 (fun o -> (o + 1, 0))) in
      let disk = Heap.store () in
      let oracle = Heap.store () in
      (* Objects start at 0 on both. *)
      for o = 1 to 6 do
        Store.write disk (oid o) (vi 0);
        Store.write oracle (oid o) (vi 0)
      done;
      let shadow = Hashtbl.create 8 in
      for o = 1 to 6 do
        Hashtbl.replace shadow o 0
      done;
      List.iteri
        (fun i (n_writes, obj, commits) ->
          let t = tid (i + 1) in
          let upd_lsn = ref 0 in
          for w = 1 to n_writes do
            let before = Hashtbl.find shadow obj in
            let after = (i * 100) + w in
            upd_lsn :=
              Log.append log
                (Record.Update { tid = t; oid = oid obj; before = Some (vi before); after = vi after });
            Hashtbl.replace shadow obj after;
            (* The store at the crash may or may not hold the write;
               recovery discards it either way. *)
            if (i + w) mod 2 = 0 then Store.write disk (oid obj) (vi after)
          done;
          if commits then begin
            ignore (Log.append log (Record.Commit [ t ]));
            Store.write oracle (oid obj) (vi (Hashtbl.find shadow obj))
          end
          else begin
            (* Loser: the abort installs (and CLR-logs) the pre-txn
               value, as the engine does; shadow returns to the oracle
               value. *)
            let restored = Value.to_int (Store.read_exn oracle (oid obj)) in
            ignore (Log.append log (Record.Clr { tid = t; oid = oid obj; image = Some (vi restored); undo_lsn = !upd_lsn }));
            ignore (Log.append log (Record.Abort t));
            Hashtbl.replace shadow obj restored
          end)
        txns;
      ignore (Recovery.recover log disk);
      Store.equal_content disk oracle)

let () =
  Alcotest.run "asset_wal"
    [
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
          Alcotest.test_case "rejects retired tags" `Quick test_codec_rejects_retired_tags;
          QCheck_alcotest.to_alcotest prop_update_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_total;
          QCheck_alcotest.to_alcotest prop_decode_survives_bitflips;
        ] );
      ( "log",
        [
          Alcotest.test_case "append/get" `Quick test_log_append_get;
          Alcotest.test_case "growth" `Quick test_log_growth;
          Alcotest.test_case "iter_rev and fold" `Quick test_log_iter_rev_and_fold;
          Alcotest.test_case "in-memory log counts as forced" `Quick
            test_log_in_memory_counts_as_forced;
          Alcotest.test_case "file roundtrip" `Quick test_log_file_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_log_load_stops_at_torn_tail;
          Alcotest.test_case "unforced commit then force" `Quick test_log_unforced_commit_then_force;
          Alcotest.test_case "force count coalesces" `Quick test_log_force_count_coalesces;
          Alcotest.test_case "load reopens for append" `Quick test_log_load_reopens_for_append;
          Alcotest.test_case "load truncates torn tail before append" `Quick
            test_log_load_truncates_torn_tail_before_append;
        ] );
      ( "segments",
        [
          Alcotest.test_case "rotation roundtrip" `Quick test_seg_rotation_roundtrip;
          Alcotest.test_case "retirement" `Quick test_seg_retirement;
          Alcotest.test_case "orphan sweep" `Quick test_seg_orphan_sweep;
          Alcotest.test_case "torn tail" `Quick test_seg_torn_tail;
          Alcotest.test_case "disk full" `Quick test_seg_disk_full;
          Alcotest.test_case "bad manifest" `Quick test_seg_bad_manifest;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "redo winner" `Quick test_recovery_redo_winner;
          Alcotest.test_case "undo loser" `Quick test_recovery_undo_loser;
          Alcotest.test_case "loser-created object deleted" `Quick
            test_recovery_loser_created_object_deleted;
          Alcotest.test_case "resolved abort replays CLRs" `Quick
            test_recovery_resolved_abort_replays_clrs;
          Alcotest.test_case "abort then winner on same object" `Quick
            test_recovery_aborted_then_winner_same_object;
          Alcotest.test_case "crashed abort skips compensated suffix" `Quick
            test_recovery_crashed_abort_skips_compensated_suffix;
          Alcotest.test_case "crashed abort undoes uncompensated prefix" `Quick
            test_recovery_crashed_abort_undoes_uncompensated_prefix;
          Alcotest.test_case "repeat history" `Quick test_recovery_interleaved_repeat_history;
          Alcotest.test_case "delegated to winner" `Quick test_recovery_delegated_to_winner;
          Alcotest.test_case "delegated from winner to loser" `Quick
            test_recovery_delegated_from_winner_to_loser;
          Alcotest.test_case "partial delegation by object" `Quick
            test_recovery_partial_delegation_by_object;
          Alcotest.test_case "delegation chain" `Quick test_recovery_delegation_chain;
          Alcotest.test_case "group commit record" `Quick test_recovery_group_commit_record;
          Alcotest.test_case "idempotent" `Quick test_recovery_idempotent;
          Alcotest.test_case "checkpoint skips prefix" `Quick test_checkpoint_skips_prefix;
          Alcotest.test_case "enqueue: append redo converges" `Quick
            test_recovery_enqueue_append_redo;
          Alcotest.test_case "enqueue: winner, loser, winner" `Quick
            test_recovery_enqueue_winner_loser_winner;
          QCheck_alcotest.to_alcotest prop_recovery_matches_oracle;
        ] );
    ]
