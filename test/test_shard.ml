(* Tests for the sharded multicore engine (lib/shard): per-domain
   engine isolation, cross-domain tracing, single-shard execution,
   2PC-from-form_dependency cross-shard transactions including abort
   and coordinator-crash paths, and oracle replay of merged
   multi-domain histories. *)

module E = Asset_core.Engine
module R = Asset_core.Runtime
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap_store = Asset_storage.Heap_store
module Lock = Asset_lock.Lock_manager
module Trace = Asset_obs.Trace
module Oracle = Asset_obs.Oracle
module Fault = Asset_fault.Fault
module Shard = Asset_shard.Shard
module Channel = Asset_shard.Channel

let oid = Oid.of_int
let vi = Value.of_int

let no_violations name vs =
  Alcotest.(check string)
    name ""
    (String.concat "; " (List.map (fun v -> Format.asprintf "%a" Oracle.pp_violation v) vs))

(* Objects whose home shard is [shard] under the [n]-way partition,
   drawn from 1..objects. *)
let home_oids ~objects ~n shard =
  List.filter (fun o -> o mod n = shard) (List.init objects (fun i -> i + 1))

(* After a shard system is idle, nothing may linger on any shard: no
   live transactions, no granted or pending lock, no in-flight escrow
   reservation, no live dependency edge. *)
let assert_leak_free ?(objects = 0) sys =
  for i = 0 to Shard.domains sys - 1 do
    let eng = Shard.engine sys i in
    let tag fmt = Printf.sprintf ("shard %d: " ^^ fmt) i in
    Alcotest.(check (list string))
      (tag "active transactions")
      []
      (List.map (Format.asprintf "%a" Tid.pp) (E.active_transactions eng));
    Alcotest.(check int) (tag "in-flight escrow") 0 (E.escrow_inflight_count eng);
    Alcotest.(check int)
      (tag "live dependency edges")
      0
      (List.assoc "deps.live_edges" (E.stats eng));
    Alcotest.(check bool) (tag "pending lock requests") false (Lock.has_pending (E.locks eng));
    List.iter
      (fun o ->
        Alcotest.(check int) (tag "granted locks on ob%d" o) 0 (List.length (Lock.granted_of (E.locks eng) (oid o))))
      (home_oids ~objects ~n:(Shard.domains sys) i)
  done

(* ------------------------------------------------------------------ *)
(* Satellite: two independent engine instances in one process share
   nothing — objects, locks, stats are all per-instance. *)

let test_two_engines_isolated () =
  let store_a = Heap_store.store () in
  let store_b = Heap_store.store () in
  let a = E.create store_a in
  let b = E.create store_b in
  R.run_exn a (fun () ->
      let t = E.initiate a (fun () -> E.write a (oid 1) (vi 41)) in
      ignore (E.begin_ a t : bool);
      ignore (E.commit a t : bool));
  (* B sees neither A's object, nor its lock history, nor its stats. *)
  Alcotest.(check bool) "b: object invisible" false (Store.exists (E.store b) (oid 1));
  Alcotest.(check int) "b: no commits" 0 (List.assoc "commits" (E.stats b));
  Alcotest.(check int) "a: one commit" 1 (List.assoc "commits" (E.stats a));
  R.run_exn b (fun () ->
      let t = E.initiate b (fun () -> E.write b (oid 1) (vi 17)) in
      ignore (E.begin_ b t : bool);
      ignore (E.commit b t : bool));
  Alcotest.(check int) "a: value unchanged by b" 41 (Value.to_int (Store.read_exn (E.store a) (oid 1)));
  Alcotest.(check int) "b: own value" 17 (Value.to_int (Store.read_exn (E.store b) (oid 1)));
  (* Tids advance independently: each engine minted t1 for its first
     transaction, which is only possible with per-instance generators. *)
  Alcotest.(check int) "independent tid spaces" (List.assoc "commits" (E.stats a)) (List.assoc "commits" (E.stats b))

(* Strided tid generators never collide across shards. *)
let test_strided_tid_generators () =
  let g0 = Tid.generator ~start:1 ~stride:3 () in
  let g1 = Tid.generator ~start:2 ~stride:3 () in
  let g2 = Tid.generator ~start:3 ~stride:3 () in
  let take g n = List.init n (fun _ -> Tid.to_int (Tid.fresh g)) in
  let all = take g0 5 @ take g1 5 @ take g2 5 in
  Alcotest.(check int) "all distinct" 15 (List.length (List.sort_uniq compare all));
  Alcotest.(check (list int)) "shard 0 sequence" [ 1; 4; 7; 10; 13 ] (List.filteri (fun i _ -> i < 5) all)

(* Domain-local recorders: two domains tracing concurrently each keep
   their own history, stamped with their own shard id. *)
let test_trace_domain_local () =
  let run_shard shard =
    Domain.spawn (fun () ->
        let mem, sink = Trace.memory_sink () in
        Trace.start ~shard ~sinks:[ sink ] ();
        for i = 1 to 50 do
          Trace.emit (Trace.Op { tid = Tid.of_int shard; oid = oid i; op = 'R' })
        done;
        Trace.stop ();
        Trace.entries mem)
  in
  let d1 = run_shard 1 in
  let d2 = run_shard 2 in
  let h1 = Domain.join d1 in
  let h2 = Domain.join d2 in
  Alcotest.(check int) "shard 1 events" 50 (List.length h1);
  Alcotest.(check int) "shard 2 events" 50 (List.length h2);
  List.iter (fun (e : Trace.entry) -> Alcotest.(check int) "shard 1 stamp" 1 e.shard) h1;
  List.iter (fun (e : Trace.entry) -> Alcotest.(check int) "shard 2 stamp" 2 e.shard) h2;
  (* The spawning domain's recorder slot is untouched. *)
  Alcotest.(check bool) "driver untraced" false (Trace.on ());
  let merged = Trace.merge [ h1; h2 ] in
  Alcotest.(check int) "merged length" 100 (List.length merged);
  List.iteri (fun i (e : Trace.entry) -> Alcotest.(check int) "renumbered" (i + 1) e.seq) merged

(* Shard-tagged entries round-trip through JSON; shard 0 stays in the
   pre-shard format. *)
let test_trace_shard_codec () =
  let e1 = { Trace.seq = 7; shard = 3; ev = Trace.Begin { tid = Tid.of_int 9 } } in
  let e0 = { Trace.seq = 7; shard = 0; ev = Trace.Begin { tid = Tid.of_int 9 } } in
  Alcotest.(check bool) "shard encoded" true
    (let s = Trace.entry_to_json e1 in
     Trace.entry_of_json s = e1);
  let s0 = Trace.entry_to_json e0 in
  Alcotest.(check bool) "shard 0 omitted" false
    (String.length s0 >= 5
    && let rec has i = i + 5 <= String.length s0 && (String.sub s0 i 5 = "shard" || has (i + 1)) in
       has 0);
  Alcotest.(check bool) "back-compat parse" true (Trace.entry_of_json s0 = e0)

(* ------------------------------------------------------------------ *)
(* Single-shard execution across domains. *)

let test_single_shard_execs () =
  let domains = 2 in
  let objects = 16 in
  let sys = Shard.create ~trace:true ~objects ~domains () in
  let per_shard = 40 in
  for s = 0 to domains - 1 do
    let homes = Array.of_list (home_oids ~objects ~n:domains s) in
    for k = 0 to per_shard - 1 do
      let o = homes.(k mod Array.length homes) in
      Shard.submit sys ~shard:s (fun eng -> E.modify eng (oid o) (fun v -> vi (1 + match v with Some v -> Value.to_int v | None -> 0)))
    done
  done;
  Shard.drain sys;
  Shard.shutdown sys;
  let total =
    let sum = ref 0 in
    for i = 0 to domains - 1 do
      Store.iter (E.store (Shard.engine sys i)) (fun _ v -> sum := !sum + Value.to_int v)
    done;
    !sum
  in
  Alcotest.(check int) "every increment committed exactly once" (domains * per_shard) total;
  Alcotest.(check int) "all commits counted" (domains * per_shard) (List.assoc "commits" (Shard.stats sys));
  assert_leak_free ~objects sys;
  let merged = Shard.merged_trace sys in
  Alcotest.(check bool) "merged trace nonempty" true (merged <> []);
  no_violations "merged trace satisfies strict axioms" (Oracle.check_strict_history merged)

(* An engine at [max_transactions] refuses every later initiation for
   good, so a refused exec gives up instead of retrying: [drain]
   returns and every exec is accounted for, well inside a small step
   budget. *)
let test_exec_gives_up_at_max_transactions () =
  let engine_config = { Shard.default_engine_config with E.max_transactions = 4 } in
  let sys = Shard.create ~engine_config ~max_steps:100_000 ~objects:4 ~domains:1 () in
  for o = 1 to 10 do
    Shard.submit sys ~shard:0 (fun eng -> E.write eng (oid (1 + (o mod 4))) (vi o))
  done;
  Shard.drain sys;
  Shard.shutdown sys;
  let stats = Shard.stats sys in
  Alcotest.(check int) "four committed" 4 (List.assoc "commits" stats);
  Alcotest.(check int) "committed + gave up = submitted" 10
    (List.assoc "commits" stats + List.assoc "gave_up" stats)

(* ------------------------------------------------------------------ *)
(* Cross-shard transactions: the 2PC happy path. *)

let test_cross_shard_commit () =
  let domains = 2 in
  let objects = 8 in
  let sys = Shard.create ~trace:true ~objects ~init:(fun _ -> vi 100) ~domains () in
  let coord = Shard.Coord.create sys in
  (* Transfers between an object on shard 0 (even oid) and one on
     shard 1 (odd oid): cross-shard atomicity keeps the total fixed. *)
  let n_txns = 25 in
  for k = 0 to n_txns - 1 do
    let src = oid (2 + (2 * (k mod 3))) and dst = oid (1 + (2 * (k mod 4))) in
    Shard.Coord.submit coord
      [
        (0, fun eng -> E.modify eng src (fun v -> vi (Value.to_int (Option.get v) - 5)));
        (1, fun eng -> E.modify eng dst (fun v -> vi (Value.to_int (Option.get v) + 5)));
      ]
  done;
  Shard.Coord.drain coord;
  Shard.shutdown sys;
  Alcotest.(check int) "all committed" n_txns (Shard.Coord.committed coord);
  Alcotest.(check int) "none aborted" 0 (Shard.Coord.aborted coord);
  Alcotest.(check int) "no mixed outcomes" 0 (Shard.Coord.mixed coord);
  let total = ref 0 in
  for i = 0 to domains - 1 do
    Store.iter (E.store (Shard.engine sys i)) (fun _ v -> total := !total + Value.to_int v)
  done;
  Alcotest.(check int) "money conserved" (objects * 100) !total;
  assert_leak_free ~objects sys;
  let merged = Shard.merged_trace sys in
  (* The coordinator's XGC edges are in the history and checkable. *)
  let xgc = List.filter (fun (e : Trace.entry) -> match e.ev with Trace.Dep { dtype = "XGC"; _ } -> true | _ -> false) merged in
  Alcotest.(check int) "one XGC edge per transaction" n_txns (List.length xgc);
  no_violations "merged trace satisfies strict axioms" (Oracle.check_strict_history merged);
  (* All-or-nothing across shards, from the trace alone. *)
  let groups =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.ev with Trace.Dep { dtype = "XGC"; master; dependent } -> Some [ master; dependent ] | _ -> None)
      merged
  in
  no_violations "cross-shard group atomicity" (Oracle.check_group_atomicity ~same_event:false ~groups merged)

(* Cross-shard abort: one participant's body aborts itself, so the
   whole group must abort on every shard, leaving no trace of the
   other participant's work. *)
let test_cross_shard_abort_propagates () =
  let domains = 2 in
  let objects = 8 in
  let sys = Shard.create ~trace:true ~objects ~init:(fun _ -> vi 100) ~domains () in
  let coord = Shard.Coord.create sys in
  Shard.Coord.submit coord
    [
      (0, fun eng -> E.modify eng (oid 2) (fun v -> vi (Value.to_int (Option.get v) + 1)));
      (1, fun eng ->
        E.modify eng (oid 1) (fun v -> vi (Value.to_int (Option.get v) + 1));
        (* deterministic participant failure after doing real work *)
        ignore (E.abort eng (E.self eng) : bool));
    ];
  Shard.Coord.drain coord;
  Shard.shutdown sys;
  Alcotest.(check int) "aborted" 1 (Shard.Coord.aborted coord);
  Alcotest.(check int) "not committed" 0 (Shard.Coord.committed coord);
  Alcotest.(check int) "no mixed outcomes" 0 (Shard.Coord.mixed coord);
  (* Shard 0's participant did commit-worthy work, but the group abort
     undid it. *)
  Alcotest.(check int) "shard 0 undone" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 0)) (oid 2)));
  Alcotest.(check int) "shard 1 undone" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 1)) (oid 1)));
  assert_leak_free ~objects sys;
  let merged = Shard.merged_trace sys in
  no_violations "merged trace satisfies strict axioms" (Oracle.check_strict_history merged)

(* A real body failure is not contention: the group aborts at once
   instead of being relaunched, so the failing body runs exactly once
   (transient all-abort outcomes are still relaunched — see above). *)
let test_cross_shard_body_failure_not_retried () =
  let sys = Shard.create ~objects:8 ~init:(fun _ -> vi 100) ~domains:2 () in
  let coord = Shard.Coord.create sys in
  let runs = Atomic.make 0 in
  Shard.Coord.submit coord
    [
      (0, fun eng -> E.modify eng (oid 2) (fun v -> vi (Value.to_int (Option.get v) + 1)));
      (1, fun _ ->
        Atomic.incr runs;
        failwith "participant body failed");
    ];
  Shard.Coord.drain coord;
  Shard.shutdown sys;
  Alcotest.(check int) "failing body ran once" 1 (Atomic.get runs);
  Alcotest.(check int) "aborted" 1 (Shard.Coord.aborted coord);
  Alcotest.(check int) "not committed" 0 (Shard.Coord.committed coord);
  Alcotest.(check int) "shard 0 undone" 100
    (Value.to_int (Store.read_exn (E.store (Shard.engine sys 0)) (oid 2)));
  assert_leak_free ~objects:8 sys

(* Ordered dispatch: participants launched serially in list order,
   each admitted by the previous prepare vote.  Submitting every
   transfer lowest-object-first gives total-order lock acquisition, so
   opposite-direction transfers over the SAME object pair — the
   pattern that deadlocks through prepared participants under parallel
   dispatch, invisible to either shard's local detector — commit
   cleanly even with many in flight. *)
let test_ordered_dispatch () =
  let domains = 2 in
  let objects = 4 in
  let sys = Shard.create ~trace:true ~objects ~init:(fun _ -> vi 100) ~domains () in
  let coord = Shard.Coord.create ~max_inflight:8 ~ordered:true sys in
  let n_pairs = 10 in
  for k = 0 to (2 * n_pairs) - 1 do
    (* alternate o1->o2 and o2->o1 money movement; participants always
       listed in object order *)
    let delta_o1 = if k mod 2 = 0 then -3 else 3 in
    Shard.Coord.submit coord
      [
        (1, fun eng -> E.modify eng (oid 1) (fun v -> vi (Value.to_int (Option.get v) + delta_o1)));
        (0, fun eng -> E.modify eng (oid 2) (fun v -> vi (Value.to_int (Option.get v) - delta_o1)));
      ]
  done;
  (* Partial-dispatch abort: the first (and only dispatched)
     participant refuses, the second is never launched, and the group
     still reaches a clean all-aborted outcome. *)
  Shard.Coord.submit coord
    [
      (1, fun eng ->
        E.modify eng (oid 3) (fun v -> vi (Value.to_int (Option.get v) + 1));
        ignore (E.abort eng (E.self eng) : bool));
      (0, fun eng -> E.modify eng (oid 4) (fun v -> vi (Value.to_int (Option.get v) + 1)));
    ];
  Shard.Coord.drain coord;
  Shard.shutdown sys;
  Alcotest.(check int) "transfers committed" (2 * n_pairs) (Shard.Coord.committed coord);
  Alcotest.(check int) "refusal aborted" 1 (Shard.Coord.aborted coord);
  Alcotest.(check int) "no mixed outcomes" 0 (Shard.Coord.mixed coord);
  Alcotest.(check int) "o1 net zero" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 1)) (oid 1)));
  Alcotest.(check int) "o2 net zero" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 0)) (oid 2)));
  Alcotest.(check int) "aborted participant undone" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 1)) (oid 3)));
  Alcotest.(check int) "undispatched participant untouched" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 0)) (oid 4)));
  assert_leak_free ~objects sys;
  no_violations "merged trace satisfies strict axioms" (Oracle.check_strict_history (Shard.merged_trace sys))

(* Coordinator crash between the last prepare and the verdict: the
   shards hold prepared participants (locks held!) and must presume
   abort when the mailbox closes — no orphaned locks, no leaked escrow
   reservations, no dangling dependencies on any shard. *)
let test_coordinator_crash_presumed_abort () =
  let domains = 2 in
  let objects = 8 in
  let sys = Shard.create ~trace:true ~objects ~init:(fun _ -> vi 100) ~domains () in
  let coord = Shard.Coord.create sys in
  let site = Fault.register Shard.Coord.decide_site in
  Fault.reset site;
  Fault.arm site Fault.Crash_once;
  Shard.Coord.submit coord
    [
      (0, fun eng ->
        E.escrow eng (oid 2) (-10) ~lo:0 ~hi:1000;
        E.modify eng (oid 4) (fun v -> vi (Value.to_int (Option.get v) + 1)));
      (1, fun eng -> E.modify eng (oid 1) (fun v -> vi (Value.to_int (Option.get v) + 10)));
    ];
  let crashed =
    match Shard.Coord.drain coord with
    | () -> false
    | exception Fault.Crash _ -> true
  in
  Alcotest.(check bool) "coordinator crashed at decision point" true crashed;
  Fault.reset site;
  (* The shards are still running, parked on a verdict that will never
     come; closing the mailboxes is the failure detector. *)
  Shard.shutdown sys;
  Alcotest.(check int) "nothing committed" 0 (Shard.Coord.committed coord);
  (* Every update was undone on both shards. *)
  Alcotest.(check int) "escrow undone" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 0)) (oid 2)));
  Alcotest.(check int) "shard 0 write undone" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 0)) (oid 4)));
  Alcotest.(check int) "shard 1 write undone" 100 (Value.to_int (Store.read_exn (E.store (Shard.engine sys 1)) (oid 1)));
  assert_leak_free ~objects sys;
  let merged = Shard.merged_trace sys in
  (* The XGC edges were emitted before the crash, so the oracle checks
     the both-or-neither obligation over the actual outcome: both
     stubs aborted. *)
  let xgc = List.filter (fun (e : Trace.entry) -> match e.ev with Trace.Dep { dtype = "XGC"; _ } -> true | _ -> false) merged in
  Alcotest.(check int) "XGC edge recorded pre-crash" 1 (List.length xgc);
  no_violations "merged trace satisfies strict axioms" (Oracle.check_strict_history merged)

(* ------------------------------------------------------------------ *)
(* Conformance shard: a mixed 2-domain workload (90% single-shard,
   10% cross-shard) whose merged multi-domain history must satisfy
   the oracle's axioms end to end. *)

let test_two_domain_conformance () =
  let domains = 2 in
  let objects = 24 in
  let sys = Shard.create ~trace:true ~objects ~init:(fun _ -> vi 50) ~domains () in
  let coord = Shard.Coord.create sys in
  let rng = Asset_util.Rng.create 424242 in
  let n_txns = 120 in
  for k = 0 to n_txns - 1 do
    if k mod 10 = 9 then
      (* cross-shard transfer *)
      let src = 2 * (1 + Asset_util.Rng.int rng (objects / 2 - 1)) in
      let dst = (2 * Asset_util.Rng.int rng (objects / 2)) + 1 in
      Shard.Coord.submit coord
        [
          (0, fun eng -> E.modify eng (oid src) (fun v -> vi (Value.to_int (Option.get v) - 1)));
          (1, fun eng -> E.modify eng (oid dst) (fun v -> vi (Value.to_int (Option.get v) + 1)));
        ]
    else
      let s = k mod domains in
      let homes = Array.of_list (home_oids ~objects ~n:domains s) in
      let o = homes.(Asset_util.Rng.int rng (Array.length homes)) in
      Shard.submit sys ~shard:s (fun eng -> E.modify eng (oid o) (fun v -> vi (Value.to_int (Option.get v) + 1)))
  done;
  Shard.Coord.drain coord;
  Shard.drain sys;
  Shard.shutdown sys;
  Alcotest.(check int) "no mixed outcomes" 0 (Shard.Coord.mixed coord);
  assert_leak_free ~objects sys;
  let merged = Shard.merged_trace sys in
  no_violations "merged 2-domain history satisfies strict axioms" (Oracle.check_strict_history merged);
  let groups =
    List.filter_map
      (fun (e : Trace.entry) ->
        match e.ev with Trace.Dep { dtype = "XGC"; master; dependent } -> Some [ master; dependent ] | _ -> None)
      merged
  in
  Alcotest.(check int) "every cross-shard txn chained" (n_txns / 10) (List.length groups);
  no_violations "cross-shard group atomicity" (Oracle.check_group_atomicity ~same_event:false ~groups merged)

(* ------------------------------------------------------------------ *)
(* The oracle's new checks have teeth: a fabricated history where one
   XGC member commits without the other is flagged. *)

let test_oracle_xgc_negative () =
  let mk evs = List.mapi (fun i ev -> { Trace.seq = i + 1; shard = 0; ev }) evs in
  let t1 = Tid.of_int 1 and t2 = Tid.of_int 2 in
  let bad =
    mk
      [
        Trace.Initiate { tid = t1; parent = Tid.null };
        Trace.Initiate { tid = t2; parent = Tid.null };
        Trace.Begin { tid = t1 };
        Trace.Begin { tid = t2 };
        Trace.Dep { dtype = "XGC"; master = t1; dependent = t2 };
        Trace.Commit { tids = [ t1 ]; ts = 1 };
        Trace.Abort { tid = t2 };
      ]
  in
  Alcotest.(check bool) "xgc violation flagged" true (Oracle.check_dependencies bad <> []);
  Alcotest.(check bool)
    "group-atomicity (relaxed) flagged" true
    (Oracle.check_group_atomicity ~same_event:false ~groups:[ [ t1; t2 ] ] bad <> []);
  let good =
    mk
      [
        Trace.Initiate { tid = t1; parent = Tid.null };
        Trace.Initiate { tid = t2; parent = Tid.null };
        Trace.Begin { tid = t1 };
        Trace.Begin { tid = t2 };
        Trace.Dep { dtype = "XGC"; master = t1; dependent = t2 };
        Trace.Commit { tids = [ t1 ]; ts = 1 };
        Trace.Commit { tids = [ t2 ]; ts = 2 };
      ]
  in
  no_violations "separate-event XGC commit accepted" (Oracle.check_dependencies good);
  no_violations "relaxed group atomicity accepted"
    (Oracle.check_group_atomicity ~same_event:false ~groups:[ [ t1; t2 ] ] good);
  Alcotest.(check bool)
    "strict same-event still rejects" true
    (Oracle.check_group_atomicity ~groups:[ [ t1; t2 ] ] good <> [])

(* ------------------------------------------------------------------ *)
(* Channel semantics. *)

let test_channel_backpressure_and_close () =
  let ch = Channel.create ~capacity:2 () in
  Alcotest.(check bool) "send 1" true (Channel.try_send ch 1);
  Alcotest.(check bool) "send 2" true (Channel.try_send ch 2);
  Alcotest.(check bool) "full" false (Channel.try_send ch 3);
  Alcotest.(check (option int)) "recv 1" (Some 1) (Channel.try_recv ch);
  (* a blocked sender is woken by close and gets Closed *)
  let blocked = Domain.spawn (fun () ->
      match Channel.send ch 3; Channel.send ch 4; Channel.send ch 5 with
      | () -> `Sent
      | exception Channel.Closed -> `Closed)
  in
  (* give the sender time to fill the queue and block *)
  while Channel.length ch < 2 do Domain.cpu_relax () done;
  Channel.close ch;
  Alcotest.(check bool) "sender saw close" true (Domain.join blocked = `Closed);
  (* queued messages remain receivable after close *)
  Alcotest.(check (option int)) "drain 2" (Some 2) (Channel.try_recv ch);
  Alcotest.(check (option int)) "drain 3" (Some 3) (Channel.try_recv ch);
  Alcotest.(check (option int)) "closed+empty" None (Channel.recv ch);
  Alcotest.(check bool) "wait_nonempty false on closed" false (Channel.wait_nonempty ch);
  let stats = Channel.stats ch in
  Alcotest.(check int) "hwm" 2 (List.assoc "hwm" stats);
  Alcotest.(check bool) "a send blocked" true (List.assoc "send_blocks" stats >= 1)

let () =
  Alcotest.run "shard"
    [
      ( "isolation",
        [
          Alcotest.test_case "two engines share nothing" `Quick test_two_engines_isolated;
          Alcotest.test_case "strided tid generators" `Quick test_strided_tid_generators;
          Alcotest.test_case "trace is domain-local" `Quick test_trace_domain_local;
          Alcotest.test_case "shard codec round-trip" `Quick test_trace_shard_codec;
        ] );
      ( "execution",
        [
          Alcotest.test_case "single-shard execs" `Quick test_single_shard_execs;
          Alcotest.test_case "exec gives up at max_transactions" `Quick
            test_exec_gives_up_at_max_transactions;
          Alcotest.test_case "cross-shard commit" `Quick test_cross_shard_commit;
          Alcotest.test_case "cross-shard abort propagates" `Quick test_cross_shard_abort_propagates;
          Alcotest.test_case "cross-shard body failure not retried" `Quick
            test_cross_shard_body_failure_not_retried;
          Alcotest.test_case "ordered dispatch" `Quick test_ordered_dispatch;
          Alcotest.test_case "coordinator crash presumes abort" `Quick test_coordinator_crash_presumed_abort;
        ] );
      ( "conformance",
        [
          Alcotest.test_case "2-domain merged history" `Quick test_two_domain_conformance;
          Alcotest.test_case "oracle xgc has teeth" `Quick test_oracle_xgc_negative;
        ] );
      ( "channel",
        [ Alcotest.test_case "backpressure and close" `Quick test_channel_backpressure_and_close ] );
    ]
