(* TPC-C-flavoured multi-class mix: see oltp.mli. *)

module E = Asset_core.Engine
module Oid = Asset_util.Id.Oid
module Tid = Asset_util.Id.Tid
module Rng = Asset_util.Rng
module Zipf = Asset_util.Zipf
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Sched = Asset_sched.Scheduler

(* Object map: counters and queues low, then the two tables. *)
let orders = Oid.of_int 3
let history = Oid.of_int 4
let ledger = Oid.of_int 5
let reserved = Oid.of_int 6
let delivered = Oid.of_int 7
let account a = Oid.of_int (1000 + a)
let stock i = Oid.of_int (2000 + i)

type config = { accounts : int; items : int; theta : float; mix : int array }

let default_config =
  { accounts = 8; items = 16; theta = 0.8; mix = [| 45; 43; 4; 8 |] }

let setup store cfg ~balance0 ~stock0 =
  Store.write store orders (Value.of_queue []);
  Store.write store history (Value.of_queue []);
  Store.write store ledger (Value.of_int 0);
  Store.write store reserved (Value.of_int 0);
  Store.write store delivered (Value.of_int 0);
  for a = 0 to cfg.accounts - 1 do
    Store.write store (account a) (Value.of_int balance0)
  done;
  for i = 0 to cfg.items - 1 do
    Store.write store (stock i) (Value.of_int stock0)
  done

type klass = New_order | Payment | Delivery | Stock_check

let klass_name = function
  | New_order -> "new_order"
  | Payment -> "payment"
  | Delivery -> "delivery"
  | Stock_check -> "stock_check"

let all_klasses = [ New_order; Payment; Delivery; Stock_check ]

type op =
  | Escrow of { delta : int; lo : int }
  | Incr of int
  | Enq of string
  | Rd

type txn = { t_klass : klass; t_ops : (Oid.t * op) list }

let pick_klass ~rng mix =
  let total = Array.fold_left ( + ) 0 mix in
  let r = Rng.int rng total in
  let rec go i acc =
    let acc = acc + mix.(i) in
    if r < acc then i else go (i + 1) acc
  in
  List.nth all_klasses (go 0 0)

let gen_txn ~rng cfg =
  let acct_z = Zipf.create ~n:cfg.accounts ~theta:cfg.theta ~rng in
  let item_z = Zipf.create ~n:cfg.items ~theta:cfg.theta ~rng in
  match pick_klass ~rng cfg.mix with
  | New_order ->
      let c = Zipf.sample acct_z in
      let lines = 1 + Rng.int rng 3 in
      let stock_ops =
        List.init lines (fun _ ->
            let i = Zipf.sample item_z in
            let qty = 1 + Rng.int rng 3 in
            [ (stock i, Escrow { delta = -qty; lo = 0 }); (reserved, Incr qty) ])
        |> List.concat
      in
      {
        t_klass = New_order;
        t_ops = stock_ops @ [ (orders, Enq (Printf.sprintf "order:%d" c)) ];
      }
  | Payment ->
      let c = Zipf.sample acct_z in
      let amt = 1 + Rng.int rng 10 in
      {
        t_klass = Payment;
        t_ops =
          [
            (account c, Escrow { delta = -amt; lo = 0 });
            (ledger, Incr amt);
            (history, Enq (Printf.sprintf "pay:%d" c));
          ];
      }
  | Delivery ->
      {
        t_klass = Delivery;
        t_ops =
          [
            (reserved, Escrow { delta = -1; lo = 0 });
            (delivered, Incr 1);
            (history, Enq "deliv");
          ];
      }
  | Stock_check ->
      let k = 2 + Rng.int rng 4 in
      let cells = List.init k (fun _ -> (stock (Zipf.sample item_z), Rd)) in
      { t_klass = Stock_check; t_ops = cells @ [ (ledger, Rd) ] }

let ops_of t = t.t_ops

let site_op = Asset_fault.Fault.register "oltp.op"

let apply db (oid, op) =
  Asset_fault.Fault.hit site_op;
  match op with
  | Escrow { delta; lo } -> E.escrow db oid delta ~lo ~hi:max_int
  | Incr n -> E.increment db oid n
  | Enq item -> E.enqueue db oid item
  | Rd -> ignore (E.read db oid)

exception Insufficient

(* The plain-2PL baseline: every semantic op degraded to a
   read-then-write on the same cell — lock upgrades, deadlocks and
   all.  A bound miss has no in-flight deltas to blame, so it aborts
   non-retryably ([Insufficient]) where escrow would abort
   transiently. *)
let apply_rmw db (oid, op) =
  Asset_fault.Fault.hit site_op;
  let get () = match E.read db oid with Some v -> v | None -> Value.of_int 0 in
  match op with
  | Escrow { delta; lo } ->
      let n = Value.to_int (get ()) + delta in
      if n < lo then raise Insufficient;
      E.write db oid (Value.of_int n)
  | Incr n -> E.write db oid (Value.of_int (Value.to_int (get ()) + n))
  | Enq item -> E.write db oid (Value.queue_push (get ()) item)
  | Rd -> ignore (E.read db oid)

let body ?(yield = true) ?(rmw = false) db t () =
  let apply = if rmw then apply_rmw else apply in
  List.iter
    (fun o ->
      apply db o;
      if yield then Sched.yield ())
    t.t_ops

let read_only t = t.t_klass = Stock_check

(* --- driver --- *)

type class_stats = {
  mutable s_committed : int;
  mutable s_aborted : int;
  mutable s_retries : int;
  mutable s_gave_up : int;
}

let fresh_stats () = { s_committed = 0; s_aborted = 0; s_retries = 0; s_gave_up = 0 }

let run_mix ?(max_retries = 4) ?(snapshot_readers = false) ?(rmw = false) db ~seed ~txns cfg =
  let stats = List.map (fun k -> (k, fresh_stats ())) all_klasses in
  let stat k = List.assoc k stats in
  let done_ = ref 0 in
  for j = 0 to txns - 1 do
    let rng = Rng.create (seed + (j * 104729)) in
    let txn = gen_txn ~rng cfg in
    let st = stat txn.t_klass in
    E.spawn db ~label:(Printf.sprintf "oltp-%d-%s" j (klass_name txn.t_klass))
      (fun () ->
        let read_only = snapshot_readers && read_only txn in
        let attempt () =
          let t = Workload.atomic ~read_only db (body ~rmw db txn) () in
          if not (Tid.is_null t || E.is_committed db t) then st.s_aborted <- st.s_aborted + 1;
          t
        in
        let outcome, retries = Workload.retry ~max_retries ~rng db attempt in
        st.s_retries <- st.s_retries + retries;
        (match outcome with
        | Workload.Committed _ -> st.s_committed <- st.s_committed + 1
        | Gave_up | Failed _ -> st.s_gave_up <- st.s_gave_up + 1);
        incr done_)
  done;
  Sched.wait_until ~reason:"oltp-done" (fun () -> !done_ >= txns);
  stats

(* --- invariants --- *)

let read_int store oid =
  match Store.read store oid with Some v -> Value.to_int v | None -> 0

let read_queue store oid =
  match Store.read store oid with Some v -> Value.to_queue v | None -> []

let check_conservation store cfg ~balance0 ~stock0 =
  let sum_range n cell =
    let s = ref 0 in
    for i = 0 to n - 1 do
      s := !s + read_int store (cell i)
    done;
    !s
  in
  let money = sum_range cfg.accounts account + read_int store ledger in
  let goods =
    sum_range cfg.items stock + read_int store reserved
    + read_int store delivered
  in
  [
    ("money", money = cfg.accounts * balance0);
    ("goods", goods = cfg.items * stock0);
  ]

let queue_lengths store =
  (List.length (read_queue store orders), List.length (read_queue store history))
