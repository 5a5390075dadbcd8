(* The pager: a file of fixed-size pages.

   Page 0 is the store header (magic, page size, allocated page count);
   data pages are numbered from 1.  All I/O goes through [read_page] /
   [write_page]; the buffer pool sits on top.  Durability is obtained by
   [sync] (fsync).

   Failpoints: "pager.read_page", "pager.write_page", "pager.sync", and
   "pager.torn_write" — the last writes only the first half of the page
   and then crashes, modelling a torn multi-sector page write.  Raw I/O
   failures (injected or real) surface as [Fault.Storage_error]. *)

module Fault = Asset_fault.Fault

let site_read = Fault.register "pager.read_page"
let site_write = Fault.register "pager.write_page"
let site_torn = Fault.register "pager.torn_write"
let site_sync = Fault.register "pager.sync"
let magic = "ASSETPG1"
let default_page_size = 4096

type t = {
  fd : Unix.file_descr;
  page_size : int;
  mutable npages : int; (* data pages allocated (excludes header page) *)
}

let pread fd buf off =
  let len = Bytes.length buf in
  let rec loop pos =
    if pos < len then begin
      let n = Unix.read fd buf pos (len - pos) in
      if n = 0 then invalid_arg "Pager: short read" else loop (pos + n)
    end
  in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  loop 0

let pwrite ?len fd buf off =
  let len = match len with Some l -> l | None -> Bytes.length buf in
  let rec loop pos =
    if pos < len then begin
      let n = Unix.write fd buf pos (len - pos) in
      loop (pos + n)
    end
  in
  ignore (Unix.lseek fd off Unix.SEEK_SET);
  loop 0

let write_header t =
  let b = Bytes.make t.page_size '\000' in
  Bytes.blit_string magic 0 b 0 (String.length magic);
  Bytes.set_int32_le b 8 (Int32.of_int t.page_size);
  Bytes.set_int32_le b 12 (Int32.of_int t.npages);
  Fault.protect "pager.write_header" (fun () -> pwrite t.fd b 0)

let create ?(page_size = default_page_size) path =
  if page_size < 64 then invalid_arg "Pager.create: page size too small";
  let fd =
    Fault.protect "pager.open" (fun () ->
        Unix.openfile path [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_TRUNC ] 0o644)
  in
  let t = { fd; page_size; npages = 0 } in
  write_header t;
  t

let open_existing path =
  let fd = Fault.protect "pager.open" (fun () -> Unix.openfile path [ Unix.O_RDWR ] 0o644) in
  let header = Bytes.create 16 in
  Fault.protect "pager.open" (fun () -> pread fd header 0);
  if Bytes.sub_string header 0 8 <> magic then begin
    Unix.close fd;
    Fmt.invalid_arg "Pager.open_existing: %s is not an ASSET page file" path
  end;
  let page_size = Int32.to_int (Bytes.get_int32_le header 8) in
  let npages = Int32.to_int (Bytes.get_int32_le header 12) in
  { fd; page_size; npages }

let page_size t = t.page_size
let npages t = t.npages

let check_page_id t page_id =
  if page_id < 1 || page_id > t.npages then
    Fmt.invalid_arg "Pager: page %d out of range (1..%d)" page_id t.npages

let alloc_page t =
  t.npages <- t.npages + 1;
  let b = Bytes.make t.page_size '\000' in
  Fault.protect "pager.alloc_page" (fun () -> pwrite t.fd b (t.npages * t.page_size));
  write_header t;
  t.npages

let read_page t page_id =
  check_page_id t page_id;
  let b = Bytes.create t.page_size in
  Fault.io site_read (fun () -> pread t.fd b (page_id * t.page_size));
  b

let write_page t page_id bytes =
  check_page_id t page_id;
  if Bytes.length bytes <> t.page_size then invalid_arg "Pager.write_page: wrong size";
  match Fault.check site_torn with
  | Some _ ->
      (* A torn page write: the first half reaches the disk, then power
         loss.  Rebuild-after-crash must cope with the mixed page. *)
      Fault.protect "pager.torn_write" (fun () ->
          pwrite ~len:(t.page_size / 2) t.fd bytes (page_id * t.page_size));
      raise (Fault.Crash "pager.torn_write")
  | None -> Fault.io site_write (fun () -> pwrite t.fd bytes (page_id * t.page_size))

let sync t = Fault.io site_sync (fun () -> Unix.fsync t.fd)

let close t =
  write_header t;
  Fault.protect "pager.close" (fun () ->
      Unix.fsync t.fd;
      Unix.close t.fd)
