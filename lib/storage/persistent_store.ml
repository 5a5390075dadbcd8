(* Persistent object store: slotted pages behind a buffer pool.

   The object table (oid -> page/slot) and the per-page free-space hints
   are volatile; both are rebuilt by scanning pages at open time, which
   is possible because every record carries its oid (see
   [Slotted_page]).  Crash-consistency of object *contents* is the job
   of the write-ahead log in [Asset_wal]; this layer only guarantees
   that [flush] makes the current cache contents durable. *)

module Oid = Asset_util.Id.Oid
module Fault = Asset_fault.Fault

(* Fires at the top of every [write] — before the object table or any
   page is touched, so an injected failure leaves the store unchanged
   and a crash loses only volatile state. *)
let site_write = Fault.register "pstore.write"

type location = { page_id : int; slot : int }

type t = {
  pager : Pager.t;
  pool : Buffer_pool.t;
  table : (Oid.t, location) Hashtbl.t;
  (* Free-space hints: conservative per-page total_free values.  Kept
     approximate; the insert path re-checks against the real page. *)
  free_hints : (int, int) Hashtbl.t;
}

let scan_page t page_id =
  Buffer_pool.with_page t.pool page_id (fun frame ->
      let page = Slotted_page.of_bytes frame.Buffer_pool.bytes in
      Slotted_page.iter page (fun slot oid _body ->
          Hashtbl.replace t.table oid { page_id; slot });
      Hashtbl.replace t.free_hints page_id (Slotted_page.total_free page))

let rebuild t =
  Hashtbl.reset t.table;
  Hashtbl.reset t.free_hints;
  for page_id = 1 to Pager.npages t.pager do
    scan_page t page_id
  done

let create ?page_size ?pool_capacity path =
  let pager = Pager.create ?page_size path in
  let pool = Buffer_pool.create ?capacity:pool_capacity pager in
  { pager; pool; table = Hashtbl.create 256; free_hints = Hashtbl.create 64 }

let open_existing ?pool_capacity path =
  let pager = Pager.open_existing path in
  let pool = Buffer_pool.create ?capacity:pool_capacity pager in
  let t = { pager; pool; table = Hashtbl.create 256; free_hints = Hashtbl.create 64 } in
  rebuild t;
  t

let read t oid =
  match Hashtbl.find_opt t.table oid with
  | None -> None
  | Some { page_id; slot } ->
      Buffer_pool.with_page t.pool page_id (fun frame ->
          let page = Slotted_page.of_bytes frame.Buffer_pool.bytes in
          match Slotted_page.read page slot with
          | Some (stored_oid, body) ->
              assert (Oid.equal stored_oid oid);
              Some (Value.of_string body)
          | None -> None)

let update_hint t page_id page =
  Hashtbl.replace t.free_hints page_id (Slotted_page.total_free page)

(* Pick a page whose free hint can hold [need] bytes, or allocate. *)
let find_target_page t ~need =
  let found =
    Hashtbl.fold
      (fun page_id free acc ->
        match acc with Some _ -> acc | None -> if free >= need then Some page_id else None)
      t.free_hints None
  in
  match found with
  | Some page_id -> page_id
  | None ->
      let page_id = Pager.alloc_page t.pager in
      Buffer_pool.with_page t.pool page_id (fun frame ->
          let page = Slotted_page.init frame.Buffer_pool.bytes in
          Buffer_pool.mark_dirty frame;
          update_hint t page_id page);
      page_id

let delete t oid =
  match Hashtbl.find_opt t.table oid with
  | None -> ()
  | Some { page_id; slot } ->
      Buffer_pool.with_page t.pool page_id (fun frame ->
          let page = Slotted_page.of_bytes frame.Buffer_pool.bytes in
          Slotted_page.delete page slot;
          Buffer_pool.mark_dirty frame;
          update_hint t page_id page);
      Hashtbl.remove t.table oid

let rec insert t oid body =
  let need = Slotted_page.record_header + String.length body + Slotted_page.slot_size in
  let page_id = find_target_page t ~need in
  let inserted =
    Buffer_pool.with_page t.pool page_id (fun frame ->
        let page = Slotted_page.of_bytes frame.Buffer_pool.bytes in
        match Slotted_page.insert_with_compaction page oid body with
        | slot ->
            Buffer_pool.mark_dirty frame;
            update_hint t page_id page;
            Some slot
        | exception Slotted_page.Page_full ->
            (* Hint was stale; fix it and retry elsewhere. *)
            update_hint t page_id page;
            None)
  in
  match inserted with
  | Some slot -> Hashtbl.replace t.table oid { page_id; slot }
  | None -> insert t oid body

let write t oid value =
  Fault.hit_io site_write;
  let body = Value.to_string value in
  if String.length body > 65535 then
    invalid_arg "Persistent_store.write: object larger than a slot (large objects unsupported)";
  match Hashtbl.find_opt t.table oid with
  | Some { page_id; slot } ->
      let in_place =
        Buffer_pool.with_page t.pool page_id (fun frame ->
            let page = Slotted_page.of_bytes frame.Buffer_pool.bytes in
            let ok = Slotted_page.update_in_place page slot body in
            if ok then begin
              Buffer_pool.mark_dirty frame;
              update_hint t page_id page
            end;
            ok)
      in
      if not in_place then begin
        delete t oid;
        insert t oid body
      end
  | None -> insert t oid body

let exists t oid = Hashtbl.mem t.table oid

let iter t f =
  (* Iterate via the object table so dead records are skipped. *)
  let oids = Hashtbl.fold (fun oid _ acc -> oid :: acc) t.table [] in
  List.iter
    (fun oid -> match read t oid with Some v -> f oid v | None -> ())
    oids

let size t = Hashtbl.length t.table
let flush t = Buffer_pool.flush_all t.pool

let close t =
  flush t;
  Pager.close t.pager

(* Simulate a crash: throw away the volatile cache and object table,
   then rebuild from what reached the disk.  Used by recovery tests. *)
let crash_and_reopen t =
  Buffer_pool.crash t.pool;
  rebuild t

let to_store ?(name = "persistent") t : Store.t =
  {
    Store.name;
    read = (fun oid -> read t oid);
    write = (fun oid v -> write t oid v);
    delete = (fun oid -> delete t oid);
    exists = (fun oid -> exists t oid);
    iter = (fun f -> iter t f);
    size = (fun () -> size t);
    flush = (fun () -> flush t);
    durable = true;
    mvcc = None;
  }
