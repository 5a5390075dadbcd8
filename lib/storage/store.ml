(* The object-store interface the transaction engine runs against.

   The implementation is [Heap_store], the in-memory object cache.  The
   store is never durable by itself: the log is, and a checkpoint logs
   the store's image, so recovery rebuilds the store from the log
   alone. *)

module Oid = Asset_util.Id.Oid

(* Multi-version extension: a store may additionally expose per-OID
   committed-version chains stamped with commit timestamps, enabling
   lock-free snapshot reads by read-only transactions.  The closures
   are filled in by [Mvcc_store.wrap]; plain stores carry [None] and
   the engine wraps them on creation. *)
type mvcc = {
  stamp_commit : unit -> int;
      (* allocate the next commit timestamp (monotonic from 1) *)
  current_ts : unit -> int; (* last allocated commit timestamp *)
  preserve : Oid.t -> Value.t option -> unit;
      (* seed a missing chain with the pre-image of the first engine
         write to this oid — its committed state at timestamp 0
         ([None] = the object did not exist yet) *)
  publish : Oid.t -> int -> Value.t -> unit;
      (* append a committed version at a timestamp; replaces the head
         when it already carries the same timestamp (group commit) *)
  read_at : Oid.t -> int -> int * Value.t option;
      (* newest committed version with timestamp <= the snapshot's:
         (version timestamp, value — [None] = absent at that time) *)
  committed_head : Oid.t -> Value.t option;
      (* newest committed version irrespective of snapshots *)
  begin_snapshot : unit -> int; (* register a reader; returns its ts *)
  end_snapshot : int -> unit; (* unregister; may trigger GC *)
  gc : unit -> unit; (* trim chains to the min active snapshot *)
  max_chain : unit -> int; (* longest chain, for GC-bound tests *)
  version_count : unit -> int; (* total stored versions *)
}

type t = {
  name : string;
  read : Oid.t -> Value.t option;
  write : Oid.t -> Value.t -> unit;
  delete : Oid.t -> unit;
  exists : Oid.t -> bool;
  iter : (Oid.t -> Value.t -> unit) -> unit;
  size : unit -> int;
  mvcc : mvcc option;
}

let name t = t.name
let read t oid = t.read oid

let read_exn t oid =
  match t.read oid with
  | Some v -> v
  | None -> Fmt.invalid_arg "Store.read_exn: %a not found" Oid.pp oid

let write t oid v = t.write oid v
let delete t oid = t.delete oid
let exists t oid = t.exists oid
let iter t f = t.iter f
let size t = t.size ()

let clear t =
  let oids = ref [] in
  t.iter (fun oid _ -> oids := oid :: !oids);
  List.iter t.delete !oids

(* Full dump as a sorted association list; used by tests to compare the
   outcome of a concurrent schedule against a serial reference run.
   (This is a debugging iterator over latest state, not a snapshot —
   snapshots in the MVCC sense live behind [mvcc].) *)
let dump t =
  let acc = ref [] in
  t.iter (fun oid v -> acc := (oid, v) :: !acc);
  List.sort (fun (a, _) (b, _) -> Oid.compare a b) !acc

let equal_content a b =
  let sa = dump a and sb = dump b in
  List.length sa = List.length sb
  && List.for_all2 (fun (o1, v1) (o2, v2) -> Oid.equal o1 o2 && Value.equal v1 v2) sa sb
