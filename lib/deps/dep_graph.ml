(* The transaction dependencies graph (section 4.1):

   "a directed graph where the nodes represent transactions and an edge
   from t_i to t_j labeled with type represents a dependency (type, t_i,
   t_j). [...] These structures are doubly hashed on the tid of the two
   transactions involved so that dependencies emanating from or incoming
   to a transaction can be located efficiently."

   Orientation convention.  form_dependency(type, t_i, t_j) names t_i
   the *master* and t_j the *dependent* (CD: "t_j cannot commit before
   t_i"; AD: "if t_i aborts, t_j must abort").  An edge is stored as
   {master; dependent; dtype}; [outgoing] returns, for a committing
   transaction, the edges on which *it* depends (it is the dependent) —
   the list the commit algorithm scans — and [incoming] the edges whose
   dependents must react when it aborts.

   GC edges carry the two marks of the section 4.2 handshake: each side
   records that it is waiting for the other to commit. *)

module Tid = Asset_util.Id.Tid

type edge = {
  master : Tid.t;
  dependent : Tid.t;
  dtype : Dep_type.t;
  mutable master_mark : bool; (* master has invoked commit and waits *)
  mutable dependent_mark : bool; (* dependent has invoked commit and waits *)
}

type t = {
  by_master : (Tid.t, edge list ref) Hashtbl.t;
  by_dependent : (Tid.t, edge list ref) Hashtbl.t;
  mutable edge_count : int;
  formed : Asset_util.Stats.Counter.t;
  rejected : Asset_util.Stats.Counter.t;
}

let create () =
  {
    by_master = Hashtbl.create 64;
    by_dependent = Hashtbl.create 64;
    edge_count = 0;
    formed = Asset_util.Stats.Counter.create "deps.formed";
    rejected = Asset_util.Stats.Counter.create "deps.rejected";
  }

let bucket table tid =
  match Hashtbl.find_opt table tid with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace table tid l;
      l

let outgoing t tid = match Hashtbl.find_opt t.by_dependent tid with Some l -> !l | None -> []
let incoming t tid = match Hashtbl.find_opt t.by_master tid with Some l -> !l | None -> []
let edge_count t = t.edge_count

(* Edges that make [tid]'s commit wait, in either role: as dependent for
   CD/AD; GC edges in both roles (group membership is symmetric). *)
let commit_relevant t tid =
  let out = List.filter (fun e -> Dep_type.blocks_commit e.dtype || e.dtype = Dep_type.GC) (outgoing t tid) in
  let inc = List.filter (fun e -> e.dtype = Dep_type.GC || e.dtype = Dep_type.EXC) (incoming t tid) in
  let exc_out = List.filter (fun e -> e.dtype = Dep_type.EXC) (outgoing t tid) in
  out @ inc @ exc_out

(* Would adding dependent -> master create a cycle in the commit-wait
   (CD/AD) subgraph?  Walk masters-of-masters from [master] looking for
   [dependent]; memoized DFS, so each node is expanded once. *)
let creates_commit_cycle t ~master ~dependent =
  let visited = Hashtbl.create 16 in
  let rec reach node =
    Tid.equal node dependent
    || (not (Hashtbl.mem visited node))
       && begin
            Hashtbl.replace visited node ();
            List.exists
              (fun e -> Dep_type.blocks_commit e.dtype && reach e.master)
              (outgoing t node)
          end
  in
  reach master

exception Cycle_rejected of Tid.t * Tid.t

let mem t dtype ~master ~dependent =
  List.exists
    (fun e -> Dep_type.equal e.dtype dtype && Tid.equal e.master master && Tid.equal e.dependent dependent)
    (incoming t master)

let add t dtype ~master ~dependent =
  if Tid.equal master dependent then invalid_arg "Dep_graph.add: self dependency";
  if mem t dtype ~master ~dependent then ()
  else begin
    (if Dep_type.blocks_commit dtype && creates_commit_cycle t ~master ~dependent
     then begin
       Asset_util.Stats.Counter.incr t.rejected;
       raise (Cycle_rejected (master, dependent))
     end);
    let edge = { master; dependent; dtype; master_mark = false; dependent_mark = false } in
    let m = bucket t.by_master master in
    m := edge :: !m;
    let d = bucket t.by_dependent dependent in
    d := edge :: !d;
    t.edge_count <- t.edge_count + 1;
    Asset_util.Stats.Counter.incr t.formed
  end

(* Remove every edge touching [tid] (commit step 5 / abort step 5). *)
let remove_involving t tid =
  let touches e = Tid.equal e.master tid || Tid.equal e.dependent tid in
  let removed = ref 0 in
  let purge table =
    Hashtbl.iter
      (fun _ l ->
        let before = List.length !l in
        l := List.filter (fun e -> not (touches e)) !l;
        removed := !removed + (before - List.length !l))
      table
  in
  purge t.by_master;
  (* Count only once: track removals from the master index; the
     dependent index drops the same edges. *)
  t.edge_count <- t.edge_count - !removed;
  Hashtbl.iter (fun _ l -> l := List.filter (fun e -> not (touches e)) !l) t.by_dependent;
  Hashtbl.remove t.by_master tid;
  Hashtbl.remove t.by_dependent tid

(* GC handshake marks.  [mark_gc t tid edge] records that [tid] (one of
   the edge's endpoints) has invoked commit and is waiting for the other
   side. *)
let mark_gc edge tid =
  if Tid.equal edge.master tid then edge.master_mark <- true
  else if Tid.equal edge.dependent tid then edge.dependent_mark <- true
  else invalid_arg "Dep_graph.mark_gc: tid not on edge"

let gc_marked edge tid =
  if Tid.equal edge.master tid then edge.master_mark
  else if Tid.equal edge.dependent tid then edge.dependent_mark
  else invalid_arg "Dep_graph.gc_marked: tid not on edge"

let gc_other edge tid =
  if Tid.equal edge.master tid then edge.dependent
  else if Tid.equal edge.dependent tid then edge.master
  else invalid_arg "Dep_graph.gc_other: tid not on edge"

let gc_edges t tid =
  List.filter (fun e -> e.dtype = Dep_type.GC) (outgoing t tid)
  @ List.filter (fun e -> e.dtype = Dep_type.GC) (incoming t tid)

(* The group-commit closure: every transaction reachable from [tid]
   over GC edges (in either direction).  Sorted for determinism. *)
let gc_group t tid =
  let seen = Hashtbl.create 8 in
  let rec visit node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      List.iter (fun e -> visit (gc_other e node)) (gc_edges t node)
    end
  in
  visit tid;
  Hashtbl.fold (fun tid () acc -> tid :: acc) seen [] |> List.sort Tid.compare

let exc_partners t tid =
  let out = List.filter (fun e -> e.dtype = Dep_type.EXC) (outgoing t tid) in
  let inc = List.filter (fun e -> e.dtype = Dep_type.EXC) (incoming t tid) in
  List.sort_uniq Tid.compare (List.map (fun e -> e.master) out @ List.map (fun e -> e.dependent) inc)

(* Begin-on-commit masters of [tid]: transactions that must commit
   before [tid] may begin. *)
let bd_masters t tid =
  outgoing t tid
  |> List.filter (fun e -> e.dtype = Dep_type.BD)
  |> List.map (fun e -> e.master)

let all_edges t =
  Hashtbl.fold (fun _ l acc -> !l @ acc) t.by_master []

(* Counters reset only here, never on read; [live_edges] is a gauge
   tracking the graph's actual edge population and is left alone. *)
let reset_stats t = List.iter Asset_util.Stats.Counter.reset [ t.formed; t.rejected ]

let stats t =
  [
    ("formed", Asset_util.Stats.Counter.get t.formed);
    ("rejected", Asset_util.Stats.Counter.get t.rejected);
    ("live_edges", t.edge_count);
  ]

let pp_edge ppf e =
  Format.fprintf ppf "%a(%a->%a)%s%s" Dep_type.pp e.dtype Tid.pp e.master Tid.pp e.dependent
    (if e.master_mark then "*m" else "")
    (if e.dependent_mark then "*d" else "")

let pp ppf t =
  Format.fprintf ppf "deps{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_edge)
    (all_edges t)
