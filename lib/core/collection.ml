(* Transactional collections: named, ordered sets of objects.

   Ode organizes objects into clusters/sets, and the cursor-stability
   discussion in the paper (section 3.2.2) talks about "moving the
   cursor from one record to the next within a relation".
   This module provides that relation: a collection is itself stored in
   objects — a root (directory) object listing chunk objects, each
   chunk holding a bounded number of member oids — so membership
   changes are transactional like any other update (locked, logged,
   undone on abort).

   Oid namespace: user objects use positive oids; collection plumbing
   (catalog, allocator, roots, chunks) lives at negative oids so the
   two can never collide.  The catalog (oid -1) maps collection names
   to root oids; the allocator (oid -2) hands out fresh negative oids.

   Ordered iteration and range queries read the root and every chunk
   under the caller's transaction and sort the members they find, so
   there is no volatile structure to keep coherent with aborts. *)

module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value

let catalog_oid = Oid.of_int (-1)
let allocator_oid = Oid.of_int (-2)

type t = { name : string; root : Oid.t; chunk_capacity : int }

let default_chunk_capacity = 64

(* ------------------------------------------------------------------ *)
(* Encoding: lists of ints as space-separated decimal strings          *)

let encode_ints ints = Value.of_string (String.concat " " (List.map string_of_int ints))

let decode_ints v =
  match Value.to_string v with
  | "" -> []
  | s -> String.split_on_char ' ' s |> List.map int_of_string

(* ------------------------------------------------------------------ *)
(* Internal-oid allocation                                             *)

let alloc_oid db =
  let next =
    match Engine.read db allocator_oid with Some v -> Value.to_int v | None -> -10
  in
  Engine.write db allocator_oid (Value.of_int (next - 1));
  Oid.of_int next

(* ------------------------------------------------------------------ *)
(* Catalog                                                             *)

let catalog db = match Engine.read db catalog_oid with Some v -> v | None -> Value.empty

let find db ~name ?(chunk_capacity = default_chunk_capacity) () =
  match Value.field (catalog db) name with
  | Some root -> Some { name; root = Oid.of_int (int_of_string root); chunk_capacity }
  | None -> None

(* Create a collection (within the current transaction).  Fails if the
   name is taken. *)
let create db ~name ?(chunk_capacity = default_chunk_capacity) () =
  if chunk_capacity < 1 then invalid_arg "Collection.create: chunk capacity must be positive";
  let cat = catalog db in
  if Value.field cat name <> None then
    Fmt.invalid_arg "Collection.create: %s already exists" name;
  let root = alloc_oid db in
  Engine.write db root (encode_ints []);
  Engine.write db catalog_oid
    (Value.set_field cat name (string_of_int (Oid.to_int root)));
  { name; root; chunk_capacity }

let find_or_create db ~name ?chunk_capacity () =
  match find db ~name ?chunk_capacity () with
  | Some c -> c
  | None -> create db ~name ?chunk_capacity ()

(* ------------------------------------------------------------------ *)
(* Membership                                                          *)

let chunks db t =
  match Engine.read db t.root with
  | Some v -> List.map Oid.of_int (decode_ints v)
  | None -> Fmt.invalid_arg "Collection %s: root object missing" t.name

let chunk_members db chunk =
  match Engine.read db chunk with Some v -> decode_ints v | None -> []

(* Sorted insertion preserving uniqueness; returns None when already
   present. *)
let sorted_insert x l =
  let rec go = function
    | [] -> Some [ x ]
    | y :: rest ->
        if x = y then None
        else if x < y then Some (x :: y :: rest)
        else Option.map (fun tail -> y :: tail) (go rest)
  in
  go l

let add db t member =
  let m = Oid.to_int member in
  if m <= 0 then invalid_arg "Collection.add: member oids must be positive";
  let all_chunks = chunks db t in
  (* Membership can live in any chunk (chunks are not range
     partitioned), so check them all before picking a target. *)
  if List.exists (fun chunk -> List.mem m (chunk_members db chunk)) all_chunks then false
  else begin
    let rec try_chunks = function
      | [] ->
          (* Every chunk full (or none): allocate a fresh one. *)
          let chunk = alloc_oid db in
          Engine.write db chunk (encode_ints [ m ]);
          Engine.write db t.root
            (encode_ints (List.map Oid.to_int all_chunks @ [ Oid.to_int chunk ]))
      | chunk :: rest -> (
          let members = chunk_members db chunk in
          if List.length members >= t.chunk_capacity then try_chunks rest
          else
            match sorted_insert m members with
            | Some members' -> Engine.write db chunk (encode_ints members')
            | None -> assert false (* membership was checked above *))
    in
    try_chunks all_chunks;
    true
  end

let remove db t member =
  let m = Oid.to_int member in
  let rec go = function
    | [] -> false
    | chunk :: rest ->
        let members = chunk_members db chunk in
        if List.mem m members then begin
          Engine.write db chunk (encode_ints (List.filter (fun x -> x <> m) members));
          true
        end
        else go rest
  in
  go (chunks db t)

let mem db t member =
  let m = Oid.to_int member in
  List.exists (fun chunk -> List.mem m (chunk_members db chunk)) (chunks db t)

let cardinal db t =
  List.fold_left (fun acc chunk -> acc + List.length (chunk_members db chunk)) 0 (chunks db t)

(* ------------------------------------------------------------------ *)
(* Ordered access                                                      *)

(* Members are unique across chunks ([add] checks every chunk first),
   so sorting the concatenation yields the ordered relation. *)
let members db t =
  List.concat_map (chunk_members db) (chunks db t)
  |> List.sort Int.compare
  |> List.map Oid.of_int

let range db t ~lo ~hi =
  List.filter (fun m -> Oid.compare lo m <= 0 && Oid.compare m hi <= 0) (members db t)

(* Scan member objects in oid order, reading each under the caller's
   transaction.  [stability] selects between strict two-phase locking
   and the section-3.2.2 cursor-stability behaviour (write permission
   released behind the cursor). *)
let scan ?(stability = `Repeatable_read) db t ~f =
  let members = members db t in
  List.iter
    (fun member ->
      (match Engine.read db member with Some v -> f member v | None -> ());
      match stability with
      | `Cursor ->
          (* Updates of any kind may proceed behind the cursor. *)
          Engine.permit db ~from_:(Engine.self db) ~oids:[ member ]
            ~ops:Asset_lock.Mode.Ops.(of_list [ Asset_lock.Mode.Write; Asset_lock.Mode.Increment ])
      | `Repeatable_read -> ())
    members
