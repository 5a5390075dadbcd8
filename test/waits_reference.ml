(* An independent reference for the lock manager's waits-for graph,
   built only from the Figure-1 lists that [pending_of], [granted_of]
   and [permits_of] expose: a pending request waits for every other
   granted or suspended holder whose mode conflicts with it, unless a
   chain of permits from the holder to the requester, every link of
   which includes the requested operation, excuses it (permit rule 3).
   Shared by the lock-manager and engine suites. *)

module Tid = Asset_util.Id.Tid
module Mode = Asset_lock.Mode
module Lm = Asset_lock.Lock_manager

(* Breadth-first over one object's permits: does a chain lead from
   [grantor] to [grantee]?  An open permit reaches everyone. *)
let permitted permits ~grantor ~grantee op =
  let rec reach visited = function
    | [] -> false
    | t :: _ when Tid.equal t grantee -> true
    | t :: rest when List.exists (Tid.equal t) visited -> reach visited rest
    | t :: rest ->
        let links = List.filter (fun (g, _, ops) -> Tid.equal g t && Mode.Ops.mem op ops) permits in
        List.exists (fun (_, e, _) -> e = None) links
        || reach (t :: visited) (rest @ List.filter_map (fun (_, e, _) -> e) links)
  in
  reach [] [ grantor ]

let compare_edge (a, b) (c, d) = match Tid.compare a c with 0 -> Tid.compare b d | n -> n

(* The reference edges (waiter, holder) over the objects [oids],
   distinct and sorted. *)
let edges lm oids =
  List.concat_map
    (fun o ->
      let permits = Lm.permits_of lm o in
      List.concat_map
        (fun (w, m, _) ->
          List.filter_map
            (fun (h, hm, hs) ->
              if
                (not (Tid.equal h w))
                && (hs = Lm.Granted || hs = Lm.Suspended)
                && Mode.conflicts hm m
                && not (permitted permits ~grantor:h ~grantee:w (Mode.as_op m))
              then Some (w, h)
              else None)
            (Lm.granted_of lm o))
        (Lm.pending_of lm o))
    oids
  |> List.sort_uniq compare_edge

(* Peel off every edge into a node with no outgoing edge until nothing
   is left (acyclic) or nothing can be peeled (every remaining node
   waits: a cycle). *)
let rec acyclic es =
  let kept = List.filter (fun (_, h) -> List.exists (fun (w, _) -> Tid.equal w h) es) es in
  kept = [] || (List.length kept < List.length es && acyclic kept)

(* Does [find_cycle] agree with the reference over [oids]: every
   reported cycle made of reference edges, and [None] exactly when the
   reference graph is acyclic? *)
let find_cycle_agrees lm oids =
  let es = edges lm oids in
  let edge a b = List.exists (fun (x, y) -> Tid.equal x a && Tid.equal y b) es in
  match Lm.find_cycle lm with
  | None -> acyclic es
  | Some [] -> false
  | Some (first :: _ as cycle) ->
      let rec closed = function
        | a :: (b :: _ as rest) -> edge a b && closed rest
        | [ last ] -> edge last first
        | [] -> false
      in
      closed cycle
