(* In-memory object store: a hash table from oid to value.

   This models the EOS shared object cache in the paper's "operate
   directly on the objects in a shared cache" mode, without the disk
   behind it.  It is the only store: durability comes from the log,
   whose checkpoints carry the store's image. *)

module Oid = Asset_util.Id.Oid

type t = (Oid.t, Value.t) Hashtbl.t

let create ?(initial_size = 256) () : t = Hashtbl.create initial_size

let to_store ?(name = "heap") (t : t) : Store.t =
  {
    Store.name;
    read = (fun oid -> Hashtbl.find_opt t oid);
    write = (fun oid v -> Hashtbl.replace t oid v);
    delete = (fun oid -> Hashtbl.remove t oid);
    exists = (fun oid -> Hashtbl.mem t oid);
    iter = (fun f -> Hashtbl.iter f t);
    size = (fun () -> Hashtbl.length t);
    mvcc = None;
  }

let store ?name ?initial_size () = to_store ?name (create ?initial_size ())

(* Populate [n] objects with ids 1..n, each holding [value i]. *)
let populate store ~n ~value =
  for i = 1 to n do
    Store.write store (Oid.of_int i) (value i)
  done
