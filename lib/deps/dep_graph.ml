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

   A GC edge carries no handshake state: the group commit reads each
   member's TD status (Committing) to learn that it has invoked commit
   and waits for the rest of its group. *)

module Tid = Asset_util.Id.Tid

type edge = {
  master : Tid.t;
  dependent : Tid.t;
  dtype : Dep_type.t;
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
    let edge = { master; dependent; dtype } in
    let m = bucket t.by_master master in
    m := edge :: !m;
    let d = bucket t.by_dependent dependent in
    d := edge :: !d;
    t.edge_count <- t.edge_count + 1;
    Asset_util.Stats.Counter.incr t.formed
  end

(* Remove every edge touching [tid] (commit step 5 / abort step 5).
   Only [tid]'s own edges are visited: each is unlinked from the other
   endpoint's bucket, which is dropped once empty. *)
let remove_involving t tid =
  let unlink table other e =
    match Hashtbl.find_opt table other with
    | None -> ()
    | Some l -> (
        match List.filter (fun x -> x != e) !l with
        | [] -> Hashtbl.remove table other
        | rest -> l := rest)
  in
  let out = outgoing t tid and inc = incoming t tid in
  Hashtbl.remove t.by_dependent tid;
  Hashtbl.remove t.by_master tid;
  List.iter (fun e -> unlink t.by_master e.master e) out;
  List.iter (fun e -> unlink t.by_dependent e.dependent e) inc;
  t.edge_count <- t.edge_count - List.length out - List.length inc

(* The group-commit closure: every transaction reachable from [tid]
   over GC edges (in either direction).  Sorted for determinism. *)
let gc_group t tid =
  let seen = Hashtbl.create 8 in
  let rec visit node =
    if not (Hashtbl.mem seen node) then begin
      Hashtbl.replace seen node ();
      List.iter (fun e -> if e.dtype = Dep_type.GC then visit e.master) (outgoing t node);
      List.iter (fun e -> if e.dtype = Dep_type.GC then visit e.dependent) (incoming t node)
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
  Format.fprintf ppf "%a(%a->%a)" Dep_type.pp e.dtype Tid.pp e.master Tid.pp e.dependent

let pp ppf t =
  Format.fprintf ppf "deps{%a}"
    (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ") pp_edge)
    (all_edges t)
