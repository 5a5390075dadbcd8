(* Closed-loop OLTP-mix benchmark over three engine configurations.

   A run is [reps] repetitions.  Each repetition builds a fresh system
   (timed as set-up), runs a fixed count of transactions generated
   from the seed before the clock starts, and checks the conservation
   and count gates.  Every transaction is timed from its first
   submission to its acknowledgement, retries included.  Per-layer
   numbers come from traced repetitions that time calls into the
   layers' public functions from this file.  See README.md. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Oltp = Asset_workload.Oltp
module Workload = Asset_workload.Workload
module Shard = Asset_shard.Shard
module Log = Asset_wal.Log
module Store = Asset_storage.Store
module Value = Asset_storage.Value
module Heap_store = Asset_storage.Heap_store
module Mvcc_store = Asset_storage.Mvcc_store
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Rng = Asset_util.Rng

let now () = Int64.to_int (Monotonic_clock.now ())

(* ---------- fixed parameters ---------- *)

type workload = Mix_durable | Mix_rmw | Mix_2pc

let workloads = [ ("mix-durable", Mix_durable); ("mix-rmw", Mix_rmw); ("mix-2pc", Mix_2pc) ]
let cfg = { Oltp.default_config with Oltp.accounts = 1000; items = 1000 }
let balance0 = 1_000_000
let stock0 = 1_000_000

(* Units moved from stock 0 into the reservation pool at set-up, so a
   delivery never meets an empty pool (goods stay conserved). *)
let reserved0 = 10_000
let sessions = 8
let domains = 2

(* High enough that no transaction of any workload is ever abandoned.
   A victim retries only once every transaction active at its abort
   has terminated (a restart delay; without it eight plain-RMW
   sessions livelock on the hot counters), then after a seeded random
   number of yields. *)
let max_retries = 1_000

(* Transactions per repetition.  Per-transaction cost grows with the
   position in the repetition (queue after-images), so this is part of
   the workload's definition. *)
let default_txns = 1_000

(* ---------- layer timers ---------- *)

type acc = { mutable ns : int; mutable calls : int }

let acc () = { ns = 0; calls = 0 }

let add a ns =
  a.ns <- a.ns + ns;
  a.calls <- a.calls + 1

let timed a f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> add a (now () - t0)) f

(* One set of timers per domain that runs transaction bodies: lane 0 on
   a single engine, lane [s] for shard [s]. *)
type lane = {
  initiate : acc;
  op_escrow : acc;
  op_incr : acc;
  op_enqueue : acc;
  op_read : acc;
  commit_tail : acc;
  store_read : acc;
  store_write : acc;
  publish : acc;
  preserve : acc;
  read_at : acc;
  participant : acc;
  coord_overhead : acc;
}

let lane () =
  {
    initiate = acc ();
    op_escrow = acc ();
    op_incr = acc ();
    op_enqueue = acc ();
    op_read = acc ();
    commit_tail = acc ();
    store_read = acc ();
    store_write = acc ();
    publish = acc ();
    preserve = acc ();
    read_at = acc ();
    participant = acc ();
    coord_overhead = acc ();
  }

let op_acc lane = function
  | Oltp.Escrow _ -> lane.op_escrow
  | Oltp.Incr _ -> lane.op_incr
  | Oltp.Enq _ -> lane.op_enqueue
  | Oltp.Rd -> lane.op_read

(* [Oltp.body] with each operation timed; stamps [body_end] when the
   last operation returns. *)
let traced_body lane ~rmw db (txn : Oltp.txn) body_end () =
  let apply = if rmw then Oltp.apply_rmw else Oltp.apply in
  List.iter
    (fun ((_, op) as o) ->
      timed (op_acc lane op) (fun () -> apply db o);
      Sched.yield ())
    txn.Oltp.t_ops;
  body_end := now ()

(* The heap store with timed reads and writes, wrapped for MVCC with
   timed version-store calls; [E.create] keeps the existing wrapper. *)
let timed_store lane (base : Store.t) =
  let timed_base =
    {
      base with
      Store.read = (fun oid -> timed lane.store_read (fun () -> base.Store.read oid));
      write = (fun oid v -> timed lane.store_write (fun () -> base.Store.write oid v));
    }
  in
  let w = Mvcc_store.wrap timed_base in
  let m = Option.get w.Store.mvcc in
  {
    w with
    Store.mvcc =
      Some
        {
          m with
          Store.publish = (fun oid ts v -> timed lane.publish (fun () -> m.Store.publish oid ts v));
          preserve = (fun oid v -> timed lane.preserve (fun () -> m.Store.preserve oid v));
          read_at = (fun oid ts -> timed lane.read_at (fun () -> m.Store.read_at oid ts));
        };
  }

(* ---------- one repetition ---------- *)

type rep = {
  setup_ns : int;
  elapsed_ns : int;
  generated : int;
  committed : int;
  failed : int;
  lat : int array;  (** ns per input index; -1 when not committed *)
  retained_words : int;
  minor_words : float;
  major_collections : int;
  steps : int;
  versions_end : int;
  counters : (string * int) list;
      (** engine stats (["lock."], ["deps."] prefixes), ["chan."]
          mailbox stats and ["wal."] log counters *)
  gates : (string * bool) list;
}

let counter r k = Option.value (List.assoc_opt k r.counters) ~default:0

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let klass_index = function
  | Oltp.New_order -> 0
  | Oltp.Payment -> 1
  | Oltp.Delivery -> 2
  | Oltp.Stock_check -> 3

let gen_inputs rng txns = Array.init txns (fun _ -> Oltp.gen_txn ~rng cfg)

let init_value o =
  let o = Oid.of_int o in
  if Oid.equal o Oltp.orders || Oid.equal o Oltp.history then Value.of_queue []
  else if Oid.equal o Oltp.reserved then Value.of_int reserved0
  else if Oid.equal o (Oltp.stock 0) then Value.of_int (stock0 - reserved0)
  else
    let i = Oid.to_int o in
    if i >= Oid.to_int (Oltp.account 0) && i < Oid.to_int (Oltp.account cfg.Oltp.accounts) then
      Value.of_int balance0
    else if i >= Oid.to_int (Oltp.stock 0) && i < Oid.to_int (Oltp.stock cfg.Oltp.items) then
      Value.of_int stock0
    else Value.of_int 0

let populate store =
  Oltp.setup store cfg ~balance0 ~stock0;
  List.iter
    (fun o -> Store.write store o (init_value (Oid.to_int o)))
    [ Oltp.reserved; Oltp.stock 0 ]

(* Orders hold one entry per committed new-order, history one per
   committed payment or delivery. *)
let queue_gate by_klass (orders, history) =
  ("queues", orders = by_klass.(0) && history = by_klass.(1) + by_klass.(2))

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let single_rep ~workload ~traced ~lane ~inputs ~rngs ~wal_dir =
  let rmw = workload = Mix_rmw in
  let snapshot_readers = workload = Mix_durable in
  let n = Array.length inputs in
  let t_setup = now () in
  let base = Heap_store.store () in
  populate base;
  let store = if traced then timed_store lane base else base in
  let log = if workload = Mix_durable then Log.create_dir wal_dir else Log.in_memory () in
  let config = { E.default_config with E.max_transactions = (n * (max_retries + 1)) + 1 } in
  let db = E.create ~config ~log store in
  let setup_ns = now () - t_setup in
  let lat = Array.make n (-1) in
  let by_klass = Array.make 4 0 in
  let next = ref 0 and finished = ref 0 and committed = ref 0 and failed = ref 0 in
  let session rng () =
    while !next < n do
      let j = !next in
      incr next;
      let txn = inputs.(j) in
      let read_only = snapshot_readers && Oltp.read_only txn in
      let t0 = now () in
      let rec attempt k =
        let body_end = ref 0 in
        let body = if traced then traced_body lane ~rmw db txn body_end else Oltp.body ~rmw db txn in
        let start () =
          let t = E.initiate ~read_only db body in
          if not (Tid.is_null t) then ignore (E.begin_ db t : bool);
          t
        in
        let tid = if traced then timed lane.initiate start else start () in
        if Tid.is_null tid then false
        else if E.commit db tid then begin
          if traced then add lane.commit_tail (now () - !body_end);
          true
        end
        else if k < max_retries && Workload.retryable (E.failure_of db tid) then begin
          E.note_retry db;
          let active = E.active_transactions db in
          Sched.wait_until ~reason:"retry" (fun () -> List.for_all (E.is_terminated db) active);
          for _ = 1 to Rng.int rng (min 64 (2 lsl min k 5)) do
            Sched.yield ()
          done;
          attempt (k + 1)
        end
        else begin
          E.note_give_up db;
          false
        end
      in
      if attempt 0 then begin
        lat.(j) <- now () - t0;
        incr committed;
        let c = klass_index txn.Oltp.t_klass in
        by_klass.(c) <- by_klass.(c) + 1
      end
      else incr failed
    done;
    incr finished
  in
  let live0 = live_words () in
  let gc0 = Gc.quick_stat () in
  let t0 = now () in
  let out =
    R.run db (fun () ->
        Array.iteri (fun s rng -> E.spawn db ~label:(Printf.sprintf "session-%d" s) (session rng)) rngs;
        Sched.wait_until ~reason:"sessions" (fun () -> !finished = sessions))
  in
  let elapsed_ns = now () - t0 in
  let gc1 = Gc.quick_stat () in
  let live1 = live_words () in
  let counters =
    E.stats db
    @ [
        ("wal.forces", Log.force_count log);
        ("wal.bytes", Log.appended_bytes log);
        ("wal.records", Log.length log - Log.start_lsn log);
      ]
  in
  let gates =
    [
      ("run", out.R.result = Ok ());
      ("counts", !committed + !failed = n);
      queue_gate by_klass (Oltp.queue_lengths base);
    ]
    @ Oltp.check_conservation base cfg ~balance0 ~stock0
  in
  Log.close log;
  ignore (Sys.opaque_identity (db, inputs));
  {
    setup_ns;
    elapsed_ns;
    generated = n;
    committed = !committed;
    failed = !failed;
    lat;
    retained_words = live1 - live0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    steps = out.R.steps;
    versions_end = E.mvcc_version_count db;
    counters;
    gates;
  }

(* The same inputs split per shard, one cross-shard 2PC group per
   transaction, one group in flight. *)
let sharded_rep ~traced ~lanes ~inputs =
  let n = Array.length inputs in
  let t_setup = now () in
  let sys = Shard.create ~domains ~objects:(Oid.to_int (Oltp.stock cfg.Oltp.items)) ~init:init_value () in
  let coord = Shard.Coord.create ~max_inflight:1 ~max_retries sys in
  let setup_ns = now () - t_setup in
  (* Each shard writes only its own slot; the main domain reads it after the
     outcome message, which orders the write before the read. *)
  let part_ns = Array.make domains 0 in
  let participant s ops =
    if traced then fun eng ->
      let lane = lanes.(s) in
      let t0 = now () in
      List.iter (fun ((_, op) as o) -> timed (op_acc lane op) (fun () -> Oltp.apply eng o)) ops;
      let d = now () - t0 in
      add lane.participant d;
      part_ns.(s) <- d
    else fun eng -> List.iter (Oltp.apply eng) ops
  in
  let groups =
    Array.map
      (fun (txn : Oltp.txn) ->
        let by_shard = Array.make domains [] in
        List.iter
          (fun ((o, _) as x) ->
            let s = Shard.shard_of sys o in
            by_shard.(s) <- x :: by_shard.(s))
          (List.rev txn.Oltp.t_ops);
        List.filter_map
          (fun s -> if by_shard.(s) = [] then None else Some (s, participant s by_shard.(s)))
          (List.init domains Fun.id))
      inputs
  in
  let lat = Array.make n (-1) in
  let by_klass = Array.make 4 0 in
  let live0 = live_words () in
  let gc0 = Gc.stat () in
  let t0 = now () in
  Array.iteri
    (fun j parts ->
      let before = Shard.Coord.committed coord in
      Array.fill part_ns 0 domains 0;
      let s0 = now () in
      Shard.Coord.submit coord parts;
      Shard.Coord.drain coord;
      let rt = now () - s0 in
      if Shard.Coord.committed coord > before then begin
        lat.(j) <- rt;
        let c = klass_index inputs.(j).Oltp.t_klass in
        by_klass.(c) <- by_klass.(c) + 1;
        if traced then add lanes.(0).coord_overhead (rt - Array.fold_left max 0 part_ns)
      end)
    groups;
  let elapsed_ns = now () - t0 in
  let live1 = live_words () in
  Shard.shutdown sys;
  let gc1 = Gc.stat () in
  let engines = List.init domains (Shard.engine sys) in
  let sum f = List.fold_left (fun acc eng -> acc + f eng) 0 engines in
  let sum_store f = sum (fun eng -> f (E.store eng)) in
  let cell st o = match Store.read st o with Some v -> Value.to_int v | None -> 0 in
  let sum_cells count mk st = List.fold_left (fun a i -> a + cell st (mk i)) 0 (List.init count Fun.id) in
  let money = sum_store (sum_cells cfg.Oltp.accounts Oltp.account) + sum_store (fun st -> cell st Oltp.ledger) in
  let goods =
    sum_store (sum_cells cfg.Oltp.items Oltp.stock)
    + sum_store (fun st -> cell st Oltp.reserved)
    + sum_store (fun st -> cell st Oltp.delivered)
  in
  let queues =
    List.fold_left
      (fun (o, h) eng ->
        let o', h' = Oltp.queue_lengths (E.store eng) in
        (o + o', h + h'))
      (0, 0) engines
  in
  let committed = Shard.Coord.committed coord in
  let failed = Shard.Coord.aborted coord in
  let counters =
    Shard.stats sys
    @ [
        ("wal.forces", sum (fun e -> Log.force_count (E.log e)));
        ("wal.bytes", sum (fun e -> Log.appended_bytes (E.log e)));
        ("wal.records", sum (fun e -> Log.length (E.log e) - Log.start_lsn (E.log e)));
      ]
  in
  let gates =
    [
      ("mixed", Shard.Coord.mixed coord = 0);
      ("counts", committed + failed + Shard.Coord.mixed coord = n);
      queue_gate by_klass queues;
      ("money", money = cfg.Oltp.accounts * balance0);
      ("goods", goods = cfg.Oltp.items * stock0);
    ]
  in
  {
    setup_ns;
    elapsed_ns;
    generated = n;
    committed;
    failed;
    lat;
    retained_words = live1 - live0;
    minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
    major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
    steps = 0;
    versions_end = sum E.mvcc_version_count;
    counters;
    gates;
  }

(* ---------- a run ---------- *)

type run = {
  untraced : rep list;
  traced : rep list;  (** empty unless the run was traced *)
  lanes : lane array;  (** the traced repetitions' timers *)
}

(* Inputs for every repetition come from one seeded stream, drawn
   before that repetition's set-up; [Gc.full_major] before the clock
   keeps the generator's garbage out of the timed phase. *)
let run ?(txns = default_txns) ~workload ~seed ~reps ~trace ~wal_root () =
  let master = Rng.create seed in
  let lanes = Array.init domains (fun _ -> lane ()) in
  let untraced = ref [] and traced = ref [] in
  let once ~traced:tr ~inputs ~rngs ~rep =
    match workload with
    | Mix_2pc -> sharded_rep ~traced:tr ~lanes ~inputs
    | Mix_durable | Mix_rmw ->
        let wal_dir = Filename.concat wal_root (Printf.sprintf "wal-%d-%d-%b" (Unix.getpid ()) rep tr) in
        Fun.protect
          ~finally:(fun () -> rm_rf wal_dir)
          (fun () ->
            single_rep ~workload ~traced:tr ~lane:lanes.(0) ~inputs
              ~rngs:(Array.map Rng.copy rngs) ~wal_dir)
  in
  if workload = Mix_durable && not (Sys.file_exists wal_root) then Unix.mkdir wal_root 0o755;
  for rep = 0 to reps - 1 do
    let rng = Rng.split master in
    let inputs = gen_inputs rng txns in
    let rngs = Array.init sessions (fun _ -> Rng.split rng) in
    (* Traced repetitions alternate with untraced ones on the same
       inputs, first on even repetitions and second on odd ones, so
       their throughput ratio is the tracing overhead and not an order
       effect. *)
    let plain () = untraced := once ~traced:false ~inputs ~rngs ~rep :: !untraced in
    let with_trace () = if trace then traced := once ~traced:true ~inputs ~rngs ~rep :: !traced in
    if rep mod 2 = 0 then (plain (); with_trace ()) else (with_trace (); plain ())
  done;
  if workload = Mix_durable then (try Unix.rmdir wal_root with Unix.Unix_error _ -> ());
  { untraced = List.rev !untraced; traced = List.rev !traced; lanes }

(* ---------- metrics ---------- *)

(* Nearest-rank [p]-quantile; nan for an empty list. *)
let quantile p xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let k = Array.length a in
      a.(max 0 (min (k - 1) (int_of_float (ceil (p *. float_of_int k)) - 1)))

(* Percentile of the committed latencies with input index in [lo, hi). *)
let percentile ?(lo = 0) ?hi p lat =
  let hi = Option.value hi ~default:(Array.length lat) in
  Array.sub lat lo (hi - lo) |> Array.to_list
  |> List.filter_map (fun x -> if x >= 0 then Some (float_of_int x) else None)
  |> quantile p

let seconds ns = float_of_int ns /. 1e9
let throughput r = float_of_int r.committed /. seconds r.elapsed_ns
let med f reps = quantile 0.5 (List.map f reps)

(* The best decile over the repetitions: the 90th percentile of a
   value where higher is better, the 10th where lower is better.  On a
   shared host the repetitions fall into a fast mode and a slow one as
   neighbouring load comes and goes; the median flips between the
   modes from run to run, the best decile stays in the fast one. *)
let best ~higher f reps = quantile (if higher then 0.9 else 0.1) (List.map f reps)

(* Engine transaction attempts per engine commit: 1 when nothing
   aborts, higher with every retried victim. *)
let attempts_per_commit r =
  let c = counter r "commits" in
  float_of_int (c + counter r "aborts") /. float_of_int (max 1 c)

(* (name, unit) in the order printed. *)
let end_to_end_spec =
  [
    ("throughput_per_s", "1/s");
    ("latency_p50_us", "us");
    ("latency_p99_us", "us");
    ("attempts_per_commit", "ratio");
    ("retained_bytes_per_txn", "B/txn");
    ("setup_s", "s");
  ]

let end_to_end reps =
  [
    ("throughput_per_s", best ~higher:true throughput reps);
    ("latency_p50_us", best ~higher:false (fun r -> percentile 0.50 r.lat /. 1e3) reps);
    ("latency_p99_us", best ~higher:false (fun r -> percentile 0.99 r.lat /. 1e3) reps);
    ("attempts_per_commit", med attempts_per_commit reps);
    ( "retained_bytes_per_txn",
      med (fun r -> float_of_int (r.retained_words * (Sys.word_size / 8)) /. float_of_int r.committed) reps );
    ("setup_s", med (fun r -> seconds r.setup_ns) reps);
  ]

let per_layer_spec =
  [
    ("wal.forces_per_txn", "1/txn");
    ("wal.bytes_per_txn", "B/txn");
    ("wal.records_per_txn", "1/txn");
    ("engine.commit_tail_us", "us");
    ("engine.initiate_us", "us");
    ("engine.op_escrow_us", "us");
    ("engine.op_incr_us", "us");
    ("engine.op_enqueue_us", "us");
    ("engine.op_read_us", "us");
    ("mvcc.publish_us", "us");
    ("mvcc.preserve_us", "us");
    ("mvcc.read_at_us", "us");
    ("store.read_us", "us");
    ("store.write_us", "us");
    ("mvcc.versions_end", "count");
    ("lock.acquires_per_txn", "1/txn");
    ("lock.blocks_per_txn", "1/txn");
    ("lock.cycle_checks_per_txn", "1/txn");
    ("engine.lock_waits_per_txn", "1/txn");
    ("engine.deadlock_victims_per_txn", "1/txn");
    ("sched.steps_per_txn", "1/txn");
    ("engine.retries_per_txn", "1/txn");
    ("engine.commit_ratio", "ratio");
    ("shard.participant_us", "us");
    ("shard.coord_overhead_us", "us");
    ("chan.sends_per_txn", "1/txn");
    ("chan.recv_blocks_per_txn", "1/txn");
    ("deps.formed_per_txn", "1/txn");
    ("gc.minor_words_per_txn", "words/txn");
    ("gc.major_collections", "count");
    ("drift.p50_last_over_first", "ratio");
    ("trace.throughput_ratio", "ratio");
  ]

(* Mean microseconds per call over every lane; 0 when the workload
   never reaches the layer. *)
let mean_us lanes f =
  let ns, calls = Array.fold_left (fun (ns, c) l -> (ns + (f l).ns, c + (f l).calls)) (0, 0) lanes in
  if calls = 0 then 0. else float_of_int ns /. float_of_int calls /. 1e3

let drift r =
  let n = Array.length r.lat in
  let tenth = max 1 (n / 10) in
  percentile ~lo:(n - tenth) 0.50 r.lat /. percentile ~hi:tenth 0.50 r.lat

let per_layer run =
  let reps = run.traced in
  let committed = float_of_int (List.fold_left (fun a r -> a + r.committed) 0 reps) in
  let total k = float_of_int (List.fold_left (fun a r -> a + counter r k) 0 reps) in
  let per_txn k = total k /. committed in
  let l = run.lanes in
  [
    ("wal.forces_per_txn", per_txn "wal.forces");
    ("wal.bytes_per_txn", per_txn "wal.bytes");
    ("wal.records_per_txn", per_txn "wal.records");
    ("engine.commit_tail_us", mean_us l (fun l -> l.commit_tail));
    ("engine.initiate_us", mean_us l (fun l -> l.initiate));
    ("engine.op_escrow_us", mean_us l (fun l -> l.op_escrow));
    ("engine.op_incr_us", mean_us l (fun l -> l.op_incr));
    ("engine.op_enqueue_us", mean_us l (fun l -> l.op_enqueue));
    ("engine.op_read_us", mean_us l (fun l -> l.op_read));
    ("mvcc.publish_us", mean_us l (fun l -> l.publish));
    ("mvcc.preserve_us", mean_us l (fun l -> l.preserve));
    ("mvcc.read_at_us", mean_us l (fun l -> l.read_at));
    ("store.read_us", mean_us l (fun l -> l.store_read));
    ("store.write_us", mean_us l (fun l -> l.store_write));
    ("mvcc.versions_end", med (fun r -> float_of_int r.versions_end) reps);
    ("lock.acquires_per_txn", per_txn "lock.acquires");
    ("lock.blocks_per_txn", per_txn "lock.blocks");
    ("lock.cycle_checks_per_txn", per_txn "lock.cycle_checks");
    ("engine.lock_waits_per_txn", per_txn "lock_waits");
    ("engine.deadlock_victims_per_txn", per_txn "deadlock_victims");
    ("sched.steps_per_txn", float_of_int (List.fold_left (fun a r -> a + r.steps) 0 reps) /. committed);
    ("engine.retries_per_txn", per_txn "retries");
    ("engine.commit_ratio", total "commits" /. (total "commits" +. total "aborts"));
    ("shard.participant_us", mean_us l (fun l -> l.participant));
    ("shard.coord_overhead_us", mean_us l (fun l -> l.coord_overhead));
    ("chan.sends_per_txn", per_txn "chan.sends");
    ("chan.recv_blocks_per_txn", per_txn "chan.recv_blocks");
    ("deps.formed_per_txn", per_txn "deps.formed");
    ("gc.minor_words_per_txn", List.fold_left (fun a r -> a +. r.minor_words) 0. reps /. committed);
    ("gc.major_collections", med (fun r -> float_of_int r.major_collections) reps);
    ("drift.p50_last_over_first", med drift reps);
    ("trace.throughput_ratio", best ~higher:true throughput reps /. best ~higher:true throughput run.untraced);
  ]

(* ---------- summary ---------- *)

let all_reps run = run.untraced @ run.traced
let correct run = List.for_all (fun r -> List.for_all snd r.gates) (all_reps run)
let attempted run = List.fold_left (fun a r -> a + r.generated) 0 (all_reps run)
let failed run = List.fold_left (fun a r -> a + r.failed) 0 (all_reps run)

let failed_gates run =
  List.concat_map (fun r -> List.filter_map (fun (g, ok) -> if ok then None else Some g) r.gates) (all_reps run)
  |> List.sort_uniq compare

(* The counts that repeat exactly across same-seed runs of a
   single-engine workload. *)
let counts r =
  [
    ("commits", counter r "commits");
    ("aborts", counter r "aborts");
    ("lock.blocks", counter r "lock.blocks");
    ("steps", r.steps);
    ("wal.forces", counter r "wal.forces");
    ("wal.bytes", counter r "wal.bytes");
  ]

(* The last line of a run's output: the metrics of [spec], in order. *)
let result_json run ~spec metrics =
  let field (name, unit_) =
    let v = List.assoc name metrics in
    let v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null" in
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" (correct run)
    (attempted run) (failed run)
    (String.concat ", " (List.map field spec))
