(* Sagas (section 3.1.6).

   A saga is a sequence of component transactions t_1 .. t_n, each
   (except the last) paired with a compensating transaction ct_i.
   Components commit independently — isolation is per component, so
   other sagas can see partial results.  If component t_{k+1} fails,
   the committed prefix is compensated in reverse order:

       t_1 t_2 ... t_k  ct_k ... ct_1

   and, per the paper, "a compensating transaction must be retried
   until it finally commits".  The translation is a straight-line
   version of this control flow; [run] is the combinator form.

   A saga step whose [compensate] is [None] is only legal as the last
   step (the paper: "t_n is not associated with a compensating
   transaction"); anywhere else [run] rejects the saga up front. *)

module E = Asset_core.Engine

type step = { label : string; action : unit -> unit; compensate : (unit -> unit) option }

let step ?compensate ?(label = "") action = { label; action; compensate }

type result =
  | Committed
  | Rolled_back of { failed_step : int; compensated : int }
      (** The saga aborted at [failed_step] (0-based); [compensated]
          components were compensated, in reverse order. *)

exception Compensation_failed of string

(* "A compensating transaction must be retried until it finally
   commits": any abort is retried.  The bound turns a compensation
   that can never commit into an exception instead of a hang. *)
let max_compensation_attempts = 1000

let compensate db ~label cf =
  let rec retry attempts =
    if attempts >= max_compensation_attempts then raise (Compensation_failed label)
    else if not (Atomic.committed db cf) then retry (attempts + 1)
  in
  retry 0

let run db steps : result =
  let n = List.length steps in
  List.iteri
    (fun i s ->
      if i < n - 1 && s.compensate = None then
        invalid_arg "Saga.run: only the last step may lack a compensating transaction")
    steps;
  (* Forward phase: commit components in order; stop at first failure. *)
  let arr = Array.of_list steps in
  let rec forward i = if i >= n then n else if Atomic.committed db arr.(i).action then forward (i + 1) else i in
  let failed = forward 0 in
  if failed >= n then Committed
  else begin
    (* Backward phase: compensate committed prefix in reverse
       commitment order, retrying each compensation until it commits. *)
    let compensated = ref 0 in
    for i = failed - 1 downto 0 do
      match arr.(i).compensate with
      | None -> assert false (* checked above: only step n-1 may lack one, and it cannot precede [failed] *)
      | Some cf ->
          compensate db ~label:arr.(i).label cf;
          incr compensated
    done;
    Rolled_back { failed_step = failed; compensated = !compensated }
  end

let committed = function Committed -> true | Rolled_back _ -> false
