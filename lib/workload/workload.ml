(* Synthetic workload generation and a run harness.

   A workload is a batch of transactions, each a list of read/write
   operations over a keyspace with optional Zipfian skew.  Transaction
   bodies yield to the scheduler between operations so that the batch
   actually interleaves (one fiber per transaction) and the lock
   manager sees contention — without the yields, cooperative execution
   would serialize every body and measure nothing.

   The harness runs the batch under a fresh fiber per transaction plus
   one coordinator that commits them in completion order, and reports
   commits, aborts (deadlock victims), lock waits and wall-clock
   throughput. *)

module E = Asset_core.Engine
module Oid = Asset_util.Id.Oid
module Tid = Asset_util.Id.Tid
module Value = Asset_storage.Value
module Rng = Asset_util.Rng
module Zipf = Asset_util.Zipf

type op = Read of Oid.t | Write of Oid.t

type spec = {
  n_objects : int;
  n_txns : int;
  ops_per_txn : int;
  write_ratio : float; (* 0.0 .. 1.0 *)
  theta : float; (* Zipf skew; 0 = uniform *)
  seed : int;
  yield_between_ops : bool;
  read_modify_write : bool;
      (* when true, a write reads first (lock upgrade) — the classic
         upgrade-deadlock pattern; when false, writes are blind *)
}

let default_spec =
  {
    n_objects = 256;
    n_txns = 32;
    ops_per_txn = 8;
    write_ratio = 0.5;
    theta = 0.0;
    seed = 42;
    yield_between_ops = true;
    read_modify_write = false;
  }

let generate spec =
  let rng = Rng.create spec.seed in
  let zipf = Zipf.create ~n:spec.n_objects ~theta:spec.theta ~rng in
  List.init spec.n_txns (fun _ ->
      List.init spec.ops_per_txn (fun _ ->
          let oid = Oid.of_int (Zipf.sample zipf + 1) in
          if Rng.float rng < spec.write_ratio then Write oid else Read oid))

type metrics = {
  committed : int;
  aborted : int;
  duration_s : float;
  lock_waits : int;
  commit_retries : int;
  deadlock_victims : int;
  throughput : float; (* committed transactions per second *)
}

let pp_metrics ppf m =
  Format.fprintf ppf "committed=%d aborted=%d waits=%d retries=%d victims=%d tput=%.0f/s"
    m.committed m.aborted m.lock_waits m.commit_retries m.deadlock_victims m.throughput

let body_of_ops db ~yield ~rmw ops () =
  List.iter
    (fun op ->
      (match op with
      | Read oid -> ignore (E.read db oid)
      | Write oid ->
          if rmw then
            E.modify db oid (fun v -> Value.incr_int (Option.value v ~default:(Value.of_int 0)) 1)
          else E.write db oid (Value.of_int 1));
      if yield then Asset_sched.Scheduler.yield ())
    ops

(* Run a batch of transaction bodies inside an existing runtime fiber.
   Begins all transactions (one fiber each) and gives each its own
   committer fiber — committing sequentially from a single coordinator
   would hold every completed transaction's locks while the coordinator
   is parked on an earlier one, stalling the batch.  Returns
   (committed, aborted). *)
let run_bodies db bodies =
  let tids = List.map (fun body -> E.initiate db body) bodies in
  List.iter (fun t -> ignore (E.begin_ db t)) tids;
  List.iter (fun t -> E.spawn db ~label:"committer" (fun () -> ignore (E.commit db t))) tids;
  E.await_terminated db tids;
  let committed = List.length (List.filter (fun t -> E.is_committed db t) tids) in
  (committed, List.length tids - committed)

let run_batch db ~yield ?(rmw = false) txns =
  run_bodies db (List.map (body_of_ops db ~yield ~rmw) txns)

(* ------------------------------------------------------------------ *)
(* The retry loop                                                      *)

(* An abort is worth retrying when it was transient: a deadlock victim
   (no failure recorded), a lock-wait timeout, an escrow bound that
   may regain headroom once in-flight deltas resolve, or an
   injected/transient I/O failure.  A real body failure (the
   application raised) is not. *)
let retryable = function
  | None -> true
  | Some (E.Lock_timeout _) -> true
  | Some (E.Escrow_violation _) -> true
  | Some (Asset_fault.Fault.Injected _) -> true
  | Some (Asset_fault.Fault.Storage_error _) -> true
  | Some _ -> false

(* The paper's translation of an atomic transaction (section 3.1.1):
   if initiate, if begin, commit. *)
let atomic ?read_only db body () =
  let t = E.initiate ?read_only db body in
  if not (Tid.is_null t) then ignore (E.begin_ db t && E.commit db t);
  t

type outcome = Committed of Tid.t | Gave_up | Failed of exn

(* Every retry in the system goes through here, so the engine's
   ["retries"]/["gave_up"] counters are exactly the drivers' sums: one
   [note_retry] per retried attempt, one [note_give_up] per run that
   ends without a commit.  The backoff draws a seeded number of
   scheduler steps whose cap doubles per attempt up to 64, so
   colliding transactions don't re-collide in lockstep. *)
let retry ~max_retries ~rng db attempt =
  let give_up outcome k =
    E.note_give_up db;
    (outcome, k)
  in
  let rec go k =
    let t = attempt () in
    if Tid.is_null t then give_up Gave_up k
    else if E.is_committed db t then (Committed t, k)
    else
      match E.failure_of db t with
      | Some e when not (retryable (Some e)) -> give_up (Failed e) k
      | _ when k >= max_retries -> give_up Gave_up k
      | _ ->
          E.note_retry db;
          for _ = 1 to Rng.int rng (min 64 (2 lsl k)) do
            Asset_sched.Scheduler.yield ()
          done;
          go (k + 1)
  in
  go 0

type retry_metrics = { r_committed : int; r_retries : int; r_gave_up : int }

(* Run each body under its own driver fiber and [retry] loop. *)
let run_bodies_with_retry ?(max_retries = 3) ~rng db bodies =
  let n = List.length bodies in
  let finished = ref 0 and committed = ref 0 and retries = ref 0 and gave_up = ref 0 in
  List.iteri
    (fun i body ->
      E.spawn db ~label:("retry-driver-" ^ string_of_int i) (fun () ->
          let outcome, k = retry ~max_retries ~rng db (atomic db body) in
          retries := !retries + k;
          (match outcome with Committed _ -> incr committed | Gave_up | Failed _ -> incr gave_up);
          incr finished))
    bodies;
  Asset_sched.Scheduler.park ~reason:"await retry drivers" (fun () -> !finished = n);
  { r_committed = !committed; r_retries = !retries; r_gave_up = !gave_up }

let stat db name = List.assoc name (E.stats db)

(* Full experiment: fresh store + engine, run the batch, return
   metrics. *)
let run spec =
  let store = Asset_storage.Heap_store.store () in
  Asset_storage.Heap_store.populate store ~n:spec.n_objects ~value:(fun _ -> Value.of_int 0);
  let db = E.create store in
  let txns = generate spec in
  let committed = ref 0 and aborted = ref 0 in
  let t0 = Unix.gettimeofday () in
  Asset_core.Runtime.run_exn db (fun () ->
      let c, a = run_batch db ~yield:spec.yield_between_ops ~rmw:spec.read_modify_write txns in
      committed := c;
      aborted := a);
  let duration_s = Unix.gettimeofday () -. t0 in
  {
    committed = !committed;
    aborted = !aborted;
    duration_s;
    lock_waits = stat db "lock_waits";
    commit_retries = stat db "commit_retries";
    deadlock_victims = stat db "deadlock_victims";
    throughput = (if duration_s > 0.0 then float_of_int !committed /. duration_s else 0.0);
  }
