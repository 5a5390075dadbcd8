(* The log: an append-only sequence of records, addressed by LSN.

   Records always live in memory (a growable array) so that the engine's
   abort path can walk them without I/O; when the log is opened with a
   backing directory, every append is also encoded into a staging
   buffer in a framed binary format (u32 length + u32 CRC-32 + body),
   and [force] drains the buffer to the raw file descriptor and fsyncs
   it — only then is anything durable.  Commit records are forced
   automatically unless the caller opts out ([~force_commit:false]),
   which is how the engine batches K commits into one force (group
   commit).

   On disk the log is a *segment directory* ([create_dir]/[load_dir]):
   fixed-size segment files named by their base LSN plus an atomic
   [MANIFEST] naming the live segments.  Rotation seals the full
   segment (drain + fsync) and makes the manifest name the successor
   *before* any record can enter it, so a forced record never lives in
   a file the manifest does not know.  [retire] deletes sealed segments
   wholly below a checkpoint watermark: manifest first, unlink second,
   directory fsync last — a crash anywhere leaves either the old
   manifest (segments still named, nothing lost) or unreferenced files
   that the next [load_dir] sweeps, so retirement is idempotent.
   Retirement frees *disk*; the in-memory array keeps the full suffix
   from [start_lsn] so the abort path and checkpoints can still resolve
   live transactions' update LSNs.

   The sink is a raw [Unix.file_descr], not an [out_channel]: the fault
   harness's simulated power loss ([crash]) must discard exactly the
   staged-but-undrained bytes, which requires the userspace buffering
   to be ours.

   Failpoints (see [Asset_fault.Fault]): "wal.append" at every staged
   append (size-aware, so a [Disk_full] budget refuses whole frames —
   never a partial one), "wal.force" before the drain+fsync,
   "wal.after_force" once the bytes are durable but before the
   in-memory forced-LSN advances, "wal.torn_write" in the drain itself
   — armed with any policy it writes *half* the staged bytes and then
   crashes, modelling a torn multi-sector write — and the retirement
   triple "wal.retire.manifest" / "wal.retire.unlink" /
   "wal.retire.sync_dir" bracketing each step of the delete
   protocol. *)

module Fault = Asset_fault.Fault
module Trace = Asset_obs.Trace

let record_kind = function
  | Record.Begin _ -> "begin"
  | Record.Update _ -> "update"
  | Record.Commit _ -> "commit"
  | Record.Abort _ -> "abort"
  | Record.Delegate _ -> "delegate"
  | Record.Increment _ -> "increment"
  | Record.Enqueue _ -> "enqueue"
  | Record.Clr _ -> "clr"
  | Record.Begin_ckpt _ -> "begin_ckpt"
  | Record.End_ckpt _ -> "end_ckpt"

let site_append = Fault.register "wal.append"
let site_force = Fault.register "wal.force"
let site_after_force = Fault.register "wal.after_force"
let site_torn = Fault.register "wal.torn_write"
let site_retire_manifest = Fault.register "wal.retire.manifest"
let site_retire_unlink = Fault.register "wal.retire.unlink"
let site_retire_sync_dir = Fault.register "wal.retire.sync_dir"

type seg = { base : int; file : string }

(* The open segment directory; [fd] writes the current segment [cur]. *)
type sink = {
  dir : string;
  limit : int; (* rotate once the current segment holds this many bytes *)
  mutable fd : Unix.file_descr;
  buf : Buffer.t;
  mutable crashed : bool;
  mutable sealed : seg list; (* oldest first; immutable, fsynced in full *)
  mutable cur : seg;
  mutable cur_bytes : int;
  mutable retired : int;
}

type t = {
  mutable records : Record.t array;
  mutable len : int; (* records held in memory *)
  mutable start_lsn : int; (* LSN of records.(0); LSNs are global, never reused *)
  sink : sink option;
  mutable forced_lsn : int; (* highest LSN known durable *)
  mutable forces : int; (* how many times [force] ran *)
  mutable corrupt_dropped : int; (* records dropped by load on CRC mismatch *)
  mutable appended_bytes : int; (* framed bytes staged over the log's lifetime *)
}

(* Drain the staging buffer past this size even without a force, to
   bound memory; durability still waits for the fsync in [force]. *)
let drain_threshold = 1 lsl 20

(* Fills the record array's unused slots. *)
let filler = Record.Begin Asset_util.Id.Tid.null

let make sink =
  {
    records = Array.make 64 filler;
    len = 0;
    start_lsn = 0;
    sink;
    forced_lsn = -1;
    forces = 0;
    corrupt_dropped = 0;
    appended_bytes = 0;
  }

let in_memory () = make None

let grow t =
  let bigger = Array.make (2 * Array.length t.records) filler in
  Array.blit t.records 0 bigger 0 t.len;
  t.records <- bigger

let push_mem t record =
  if t.len = Array.length t.records then grow t;
  t.records.(t.len) <- record;
  t.len <- t.len + 1

let frame_header_size = 8

let buffer_framed buf body =
  Buffer.add_int32_le buf (Int32.of_int (String.length body));
  Buffer.add_int32_le buf (Int32.of_int (Asset_util.Crc32.string body));
  Buffer.add_string buf body

let rec write_all fd b pos len =
  if len > 0 then begin
    let n = Unix.write fd b pos len in
    write_all fd b (pos + n) (len - n)
  end

(* ---------- directory layout ---------- *)

let seg_name base = Printf.sprintf "seg-%012d.wal" base
let seg_path dir base = Filename.concat dir (seg_name base)
let is_seg_name name = String.length name > 4 && String.sub name 0 4 = "seg-" && Filename.check_suffix name ".wal"
let manifest_path dir = Filename.concat dir "MANIFEST"

let fsync_dir dir =
  let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> Unix.fsync fd)

(* Atomic manifest replacement: write a sibling temp file, fsync it,
   rename over [MANIFEST], fsync the directory.  rename(2) is atomic,
   so a reader (and a crash) sees either the old manifest or the new
   one in full — never a torn mix.  The directory fsync makes the
   rename itself durable (and, at rotation, the new segment's dirent
   along with it). *)
let write_manifest dir ~limit ~retired segs =
  let tmp = Filename.concat dir "MANIFEST.tmp" in
  let body = Buffer.create 256 in
  Buffer.add_string body "asset-wal v1\n";
  Buffer.add_string body (Printf.sprintf "limit %d\n" limit);
  Buffer.add_string body (Printf.sprintf "retired %d\n" retired);
  List.iter (fun s -> Buffer.add_string body (Printf.sprintf "seg %d %s\n" s.base (Filename.basename s.file))) segs;
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let b = Buffer.to_bytes body in
      write_all fd b 0 (Bytes.length b);
      Unix.fsync fd);
  Unix.rename tmp (manifest_path dir);
  fsync_dir dir

exception Bad_manifest of string

let read_manifest dir =
  let path = manifest_path dir in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec loop acc = match input_line ic with
            | line -> loop (line :: acc)
            | exception End_of_file -> List.rev acc
          in
          loop [])
    in
    match lines with
    | magic :: rest when magic = "asset-wal v1" ->
        let limit = ref drain_threshold and retired = ref 0 and segs = ref [] in
        List.iter
          (fun line ->
            let num n =
              match int_of_string_opt n with Some v -> v | None -> raise (Bad_manifest line)
            in
            match String.split_on_char ' ' line with
            | [ "limit"; n ] -> limit := num n
            | [ "retired"; n ] -> retired := num n
            | [ "seg"; base; name ] -> segs := { base = num base; file = Filename.concat dir name } :: !segs
            | [ "" ] | [] -> ()
            | _ -> raise (Bad_manifest line))
          rest;
        Some (!limit, !retired, List.rev !segs)
    | magic :: _ -> raise (Bad_manifest magic)
    | [] -> raise (Bad_manifest "empty manifest")
  end

(* A log writing into segment [cur] (already holding [cur_bytes]) of
   [dir], through [fd]. *)
let open_segments ~dir ~limit ~retired ~sealed cur cur_bytes fd =
  let buf = Buffer.create 4096 in
  make (Some { dir; limit; fd; buf; crashed = false; sealed; cur; cur_bytes; retired })

let create_dir ?(segment_bytes = 1 lsl 20) dir =
  let limit = max 1 segment_bytes in
  Fault.protect "wal.open" (fun () ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let file = seg_path dir 0 in
      let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      write_manifest dir ~limit ~retired:0 [ { base = 0; file } ];
      open_segments ~dir ~limit ~retired:0 ~sealed:[] { base = 0; file } 0 fd)

(* ---------- appending ---------- *)

let drain sink =
  if Buffer.length sink.buf > 0 then begin
    let staged = Buffer.contents sink.buf in
    match Fault.check site_torn with
    | Some _ ->
        (* A torn write: half the staged bytes reach the disk, then the
           machine dies.  The buffer is cleared first — the surviving
           process state is irrelevant, the harness discards it. *)
        Buffer.clear sink.buf;
        Fault.protect "wal.drain" (fun () ->
            write_all sink.fd (Bytes.unsafe_of_string staged) 0 (String.length staged / 2));
        raise (Fault.Crash "wal.torn_write")
    | None ->
        Buffer.clear sink.buf;
        Fault.protect "wal.drain" (fun () ->
            write_all sink.fd (Bytes.unsafe_of_string staged) 0 (String.length staged))
  end

let force t =
  (match t.sink with
  | None -> ()
  | Some sink ->
      Fault.io site_force (fun () ->
          drain sink;
          (* The fsync is what makes the bytes durable. *)
          Unix.fsync sink.fd);
      (* Crash here = power loss after the force hit the platter but
         before anyone was told: durable yet unacknowledged. *)
      Fault.hit_io site_after_force);
  t.forced_lsn <- t.start_lsn + t.len - 1;
  if Trace.on () then Trace.emit (Trace.Wal_force { lsn = t.forced_lsn });
  t.forces <- t.forces + 1

(* Seal the current segment and open its successor.  Ordering is the
   whole point: (1) the sealed segment is drained and fsynced — an
   interior segment is never reopened, so it must be complete on disk
   before anything supersedes it; (2) the successor file is created;
   (3) the manifest names the successor; only then (4) does the sink
   switch, letting records reach the new file.  A crash between (2)
   and (3) leaves an orphan file that [load_dir] sweeps; a crash
   between (3) and (4) leaves a named empty segment, which loads as
   zero records.  Either way no durable record is ever outside the
   manifest. *)
let rotate t sink =
  drain sink;
  Fault.protect "wal.rotate" (fun () ->
      Unix.fsync sink.fd;
      Unix.close sink.fd);
  t.forced_lsn <- max t.forced_lsn (t.start_lsn + t.len - 1);
  sink.sealed <- sink.sealed @ [ sink.cur ];
  let base = t.start_lsn + t.len in
  let file = seg_path sink.dir base in
  Fault.protect "wal.rotate" (fun () ->
      let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      write_manifest sink.dir ~limit:sink.limit ~retired:sink.retired (sink.sealed @ [ { base; file } ]);
      sink.fd <- fd);
  sink.cur <- { base; file };
  sink.cur_bytes <- 0

let append ?(force_commit = true) t record =
  let framed =
    match t.sink with
    | None -> None
    | Some _ ->
        let body = Record.encode record in
        (* The size-aware hit lets a [Disk_full] budget refuse the
           whole frame up front: a refused append stages nothing, so
           the segment is never torn by running out of space. *)
        Fault.hit_io_bytes site_append (frame_header_size + String.length body);
        Some body
  in
  push_mem t record;
  let lsn = t.start_lsn + t.len - 1 in
  if Trace.on () then Trace.emit (Trace.Wal_append { lsn; kind = record_kind record });
  (match (t.sink, framed) with
  | Some sink, Some body ->
      let frame_bytes = frame_header_size + String.length body in
      buffer_framed sink.buf body;
      t.appended_bytes <- t.appended_bytes + frame_bytes;
      sink.cur_bytes <- sink.cur_bytes + frame_bytes;
      if sink.cur_bytes >= sink.limit then rotate t sink
      else if Buffer.length sink.buf >= drain_threshold then drain sink
  | _ -> ());
  (* The WAL rule: a commit record must be durable before the commit is
     acknowledged.  The engine's group-commit path opts out and forces
     once per batch instead. *)
  (match record with Record.Commit _ when force_commit -> force t | _ -> ());
  lsn

let length t = t.start_lsn + t.len
let start_lsn t = t.start_lsn

let get t lsn =
  if lsn < t.start_lsn || lsn >= t.start_lsn + t.len then invalid_arg "Log.get: bad LSN"
  else t.records.(lsn - t.start_lsn)

let forced_lsn t = t.forced_lsn
let force_count t = t.forces
let corrupt_dropped t = t.corrupt_dropped
let appended_bytes t = t.appended_bytes

let segment_count t = match t.sink with Some sink -> List.length sink.sealed + 1 | None -> 1
let segments_retired t = match t.sink with Some sink -> sink.retired | None -> 0

let iter ?from t f =
  let from = match from with None -> t.start_lsn | Some l -> max l t.start_lsn in
  for lsn = from to t.start_lsn + t.len - 1 do
    f lsn t.records.(lsn - t.start_lsn)
  done

let iter_rev ?until t f =
  let until = match until with None -> t.start_lsn | Some u -> max u t.start_lsn in
  for lsn = t.start_lsn + t.len - 1 downto until do
    f lsn t.records.(lsn - t.start_lsn)
  done

let fold ?from t ~init ~f =
  let acc = ref init in
  iter ?from t (fun lsn r -> acc := f !acc lsn r);
  !acc

let to_list t = List.init t.len (fun i -> t.records.(i))

let close t =
  match t.sink with
  | None -> ()
  | Some sink ->
      if not sink.crashed then begin
        sink.crashed <- true;
        drain sink;
        Fault.protect "wal.close" (fun () -> Unix.close sink.fd)
      end

(* Simulated power loss: the staging buffer — everything appended since
   the last drain — evaporates, and the descriptor is dropped without a
   flush.  What the next load sees is exactly what reached the disk. *)
let crash t =
  match t.sink with
  | None -> ()
  | Some sink ->
      if not sink.crashed then begin
        sink.crashed <- true;
        Buffer.clear sink.buf;
        (try Unix.close sink.fd with Unix.Unix_error _ -> ())
      end

(* ---------- loading ---------- *)

(* Frame-parse one file.  Stops cleanly at a torn tail (partial final
   record) and at the first CRC mismatch — a torn tail is the expected
   signature of a crash mid-write, while a checksum failure on a
   *complete* frame means bit rot or an interior torn write, so every
   complete record from there on is counted as dropped.  [p_clean]
   distinguishes "ended exactly on a frame boundary, no corruption"
   from both failure shapes — an *interior* segment that is not clean
   poisons everything after it. *)
type parsed = {
  p_records : Record.t list; (* oldest first *)
  p_valid_end : int; (* byte offset just past the last good record *)
  p_dropped : int; (* complete records discarded after corruption *)
  p_clean : bool;
}

let max_sane_record = 1 lsl 26

let parse_file path =
  let ic = Fault.protect "wal.open" (fun () -> open_in_bin path) in
  let records = ref [] in
  let valid_end = ref 0 in
  let dropped = ref 0 in
  let clean = ref true in
  let frame = Bytes.create frame_header_size in
  (* After a corrupt record, keep walking the (untrusted) framing just
     to count how many complete records are being discarded. *)
  let rec count_rest () =
    match really_input ic frame 0 frame_header_size with
    | () ->
        let len = Int32.to_int (Bytes.get_int32_le frame 0) in
        if len < 0 || len > max_sane_record then ()
        else begin
          let body = Bytes.create len in
          match really_input ic body 0 len with
          | () ->
              incr dropped;
              count_rest ()
          | exception End_of_file -> ()
        end
    | exception End_of_file -> ()
  in
  let rec loop () =
    match really_input ic frame 0 frame_header_size with
    | () ->
        let len = Int32.to_int (Bytes.get_int32_le frame 0) in
        let crc = Int32.to_int (Bytes.get_int32_le frame 4) land 0xFFFFFFFF in
        if len < 0 || len > max_sane_record then begin
          (* Garbage length on a complete header: corruption. *)
          clean := false;
          incr dropped
        end
        else begin
          let body = Bytes.create len in
          match really_input ic body 0 len with
          | () ->
              let body = Bytes.unsafe_to_string body in
              if Asset_util.Crc32.string body land 0xFFFFFFFF <> crc then begin
                clean := false;
                incr dropped;
                count_rest ()
              end
              else begin
                match Record.decode body with
                | r ->
                    records := r :: !records;
                    valid_end := pos_in ic;
                    loop ()
                | exception Record.Corrupt _ ->
                    clean := false;
                    incr dropped;
                    count_rest ()
              end
          | exception End_of_file -> (* torn tail *) clean := false
        end
    | exception End_of_file -> ()
  in
  Fault.protect "wal.load" (fun () ->
      loop ();
      close_in ic);
  { p_records = List.rev !records; p_valid_end = !valid_end; p_dropped = !dropped; p_clean = !clean }

(* Count the complete frames of a file whose contents are already
   condemned (a segment after a corruption point). *)
let count_file path =
  match parse_file path with
  | { p_records; p_dropped; _ } -> List.length p_records + p_dropped
  | exception Fault.Storage_error _ -> 0

let reopen_appendable path valid_end =
  Fault.protect "wal.open" (fun () ->
      let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
      Unix.ftruncate fd valid_end;
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      fd)

(* Load a segment directory for recovery.  The manifest names the live
   segments oldest first; they are parsed in order.  The first segment
   that fails to parse clean ends the trusted history: on the *last*
   segment a torn tail is the normal crash signature (silently
   truncated), anywhere else it — like any CRC failure — condemns
   every record after the cut, all counted in [corrupt_dropped].  The
   cut segment is truncated to its last good record and reopened as
   the appendable current segment; segments past the cut and any
   seg-*.wal file the manifest does not name (retirement or rotation
   leftovers from a crash) are deleted, completing whatever protocol
   step the crash interrupted. *)
let load_dir dir =
  match read_manifest dir with
  | None ->
      (* Nothing durable ever made it (crash before the first manifest
         write): an empty log. *)
      create_dir dir
  | Some (limit, retired, segs) ->
      let segs = List.sort (fun a b -> compare a.base b.base) segs in
      let start = match segs with [] -> 0 | s :: _ -> s.base in
      let records = ref [] in
      (* (seg, valid_end) of segments kept live, newest first. *)
      let live = ref [] in
      let dropped = ref 0 in
      let cut = ref false in
      let n_segs = List.length segs in
      List.iter
        (fun s ->
          if !cut then dropped := !dropped + count_file s.file
          else if not (Sys.file_exists s.file) then
            (* Rotation crashed between manifest write and the first
               drain into the new file: an empty current segment. *)
            cut := true
          else begin
            let p = parse_file s.file in
            records := List.rev_append p.p_records !records;
            dropped := !dropped + p.p_dropped;
            live := (s, p.p_valid_end) :: !live;
            (* Any unclean end cuts the trusted history here: a torn
               tail on the final segment is the normal crash signature,
               interior damage condemns the whole suffix (later
               segments' records land in [dropped] above). *)
            if not p.p_clean then cut := true
          end)
        segs;
      let live = List.rev !live in
      let live, cur, cur_end =
        match List.rev live with
        | [] ->
            (* Every named segment was missing: restart the directory
               at the manifest's base LSN. *)
            let file = seg_path dir start in
            let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
            Unix.close fd;
            ([], { base = start; file }, 0)
        | (s, e) :: rest -> (List.rev_map fst rest, s, e)
      in
      (* Re-point the manifest at the surviving segments if the cut
         dropped any, then sweep files it no longer (or never) named:
         this completes an interrupted retirement — idempotent because
         unlinking an already-missing file is a no-op. *)
      let named = List.map (fun s -> Filename.basename s.file) (live @ [ cur ]) in
      if List.length named <> n_segs then
        Fault.protect "wal.load" (fun () -> write_manifest dir ~limit ~retired (live @ [ cur ]));
      Array.iter
        (fun name ->
          if is_seg_name name && not (List.mem name named) then
            try Unix.unlink (Filename.concat dir name) with Unix.Unix_error _ -> ())
        (Sys.readdir dir);
      (try fsync_dir dir with Unix.Unix_error _ -> ());
      let fd = reopen_appendable cur.file cur_end in
      let t = open_segments ~dir ~limit ~retired ~sealed:live cur cur_end fd in
      t.start_lsn <- start;
      (* Replay into memory only: the records are already on disk. *)
      List.iter (push_mem t) (List.rev !records);
      t.forced_lsn <- t.start_lsn + t.len - 1;
      t.corrupt_dropped <- !dropped;
      t.appended_bytes <- List.fold_left (fun acc s -> acc + (try (Unix.stat s.file).st_size with Unix.Unix_error _ -> 0)) cur_end live;
      t

(* ---------- retirement ---------- *)

(* Delete sealed segments wholly below the checkpoint watermark.  A
   sealed segment covers [s.base, successor.base), so it is retirable
   iff its successor's base is at or below [below]; the current
   segment never retires.  Protocol order is what makes a crash at any
   point safe: (1) the manifest stops naming the segments — from here
   a re-load never reads them; (2) the files are unlinked; (3) the
   directory fsync makes the unlinks durable.  Crash after (1): the
   files are unreferenced, [load_dir] sweeps them.  Crash during (2)
   or before (3): some unlinks may or may not have reached disk —
   re-running sweeps the survivors, and unlinking a missing file is
   ignored.  Idempotent at every step. *)
let retire t ~below =
  match t.sink with
  | Some sink when (not sink.crashed) && sink.sealed <> [] ->
      let next_bases =
        List.map (fun s -> s.base) (List.tl sink.sealed) @ [ sink.cur.base ]
      in
      let paired = List.combine sink.sealed next_bases in
      let retirable, keep = List.partition (fun (_, next) -> next <= below) paired in
      let retirable = List.map fst retirable and keep = List.map fst keep in
      if retirable = [] then 0
      else begin
        Fault.hit_io site_retire_manifest;
        sink.sealed <- keep;
        sink.retired <- sink.retired + List.length retirable;
        Fault.protect "wal.retire" (fun () ->
            write_manifest sink.dir ~limit:sink.limit ~retired:sink.retired (keep @ [ sink.cur ]));
        Fault.hit_io site_retire_unlink;
        Fault.protect "wal.retire" (fun () ->
            List.iter
              (fun s -> try Unix.unlink s.file with Unix.Unix_error (Unix.ENOENT, _, _) -> ())
              retirable);
        Fault.hit_io site_retire_sync_dir;
        Fault.protect "wal.retire" (fun () -> fsync_dir sink.dir);
        if Trace.on () then Trace.emit (Trace.Wal_retire { below; segments = List.length retirable });
        List.length retirable
      end
  | _ -> 0

let remove_dir dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let pp ppf t =
  iter t (fun lsn r -> Format.fprintf ppf "%4d %a@." lsn Record.pp r)
