(* Sharded engine: one complete single-domain ASSET instance per OCaml
   domain, typed messages over bounded mailboxes between them, and the
   paper's form_dependency GC machinery as the cross-shard commit
   protocol (see shard.mli and DESIGN.md §11 for the protocol story).

   Threading discipline: a shard's engine, scheduler and decision
   table are touched only by its own domain.  The driver touches them
   only through the inbox while the domain runs, and directly only
   after [shutdown] has joined it.  The only shared mutable state is
   the mailboxes (internally locked), the per-shard pending/error
   cells (atomics) and the trace sink refs (written by the shard
   domain, read by the driver after join). *)

module E = Asset_core.Engine
module Sched = Asset_sched.Scheduler
module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Trace = Asset_obs.Trace
module Dep_type = Asset_deps.Dep_type
module Fault = Asset_fault.Fault
module Value = Asset_storage.Value
module Store = Asset_storage.Store
module Heap_store = Asset_storage.Heap_store
module Workload = Asset_workload.Workload
module Rng = Asset_util.Rng

type decision = Commit | Abort

type vote = { v_gid : int; v_shard : int; v_prepared : bool; v_stub : Tid.t }
type outcome = { o_gid : int; o_shard : int; o_committed : bool; o_retryable : bool }
type reply = Vote of vote | Outcome of outcome

type msg =
  | Exec of { body : E.t -> unit; max_retries : int }
  | Participate of { gid : int; body : E.t -> unit; reply : reply Channel.t }
  | Decide of { gid : int; verdict : decision }

type shard_state = {
  id : int;
  engine : E.t;
  inbox : msg Channel.t;
  mem : Trace.entry list ref; (* this shard's trace history, newest first *)
  exec_pending : int Atomic.t;
  error : exn option Atomic.t;
  rng : Rng.t; (* exec retry backoff, seeded from [id] *)
  mutable domain : unit Domain.t option;
}

type t = {
  n : int;
  shards : shard_state array;
  gid_gen : int Atomic.t;
  main_mem : Trace.entry list ref option; (* driver-lane recorder we installed *)
  mutable closed : bool;
}

let default_engine_config =
  {
    E.default_config with
    E.max_transactions = 1_000_000;
    (* Distributed-deadlock backstop: a prepared participant's locks
       can block another cross-shard transaction's participant on a
       different shard — invisible to any single shard's cycle
       detector — so lock waiters must eventually time out, vote
       unprepared, and let the coordinator abort the group. *)
    lock_wait_timeout_steps = 400;
  }

(* ------------------------------------------------------------------ *)
(* Shard server: runs on its own domain. *)

(* Replies outlive the coordinator on the crash path (nobody drains
   them), so sends must neither block nor raise: the reply channel is
   sized for the worst case by [Coord.create], and [Closed] just means
   the coordinator is gone — presumed abort already covers us. *)
let reply_send reply r = try Channel.send reply r with Channel.Closed -> ()

let handle_exec st body max_retries =
  let eng = st.engine in
  E.spawn eng ~label:"exec" (fun () ->
      let attempt = Workload.atomic eng (fun () -> body eng) in
      ignore (Workload.retry ~max_retries ~rng:st.rng eng attempt);
      Atomic.decr st.exec_pending)

(* One cross-shard participant: the paper-native construction.  [part]
   does the shard-local work; [stub] is the decision transaction,
   GC-joined to it.  Participant completion (strict 2PL: locks held,
   updates undoable) is the "prepared" vote; the verdict then drives
   the stub, and the GC edge drags [part] along either way. *)
let handle_participate st decisions gid body reply =
  let eng = st.engine in
  let dec = ref None in
  Hashtbl.replace decisions gid dec;
  let part = E.initiate eng (fun () -> body eng) in
  (* The wait condition is re-polled by the scheduler's wake sweep,
     outside any fiber, where [E.self] is null — so the stub watches
     its own tid through a ref filled in right after initiate. *)
  let stub_tid = ref Tid.null in
  let stub =
    E.initiate eng (fun () ->
        Sched.wait_until ~reason:"xshard decision" (fun () ->
            !dec <> None
            || ((not (Tid.is_null !stub_tid)) && E.is_aborted eng !stub_tid));
        if E.is_aborted eng !stub_tid then raise (E.Txn_aborted !stub_tid))
  in
  stub_tid := stub;
  if Tid.is_null part || Tid.is_null stub then begin
    if not (Tid.is_null part) then ignore (E.abort eng part : bool);
    if not (Tid.is_null stub) then ignore (E.abort eng stub : bool);
    Hashtbl.remove decisions gid;
    reply_send reply (Vote { v_gid = gid; v_shard = st.id; v_prepared = false; v_stub = Tid.null });
    (* A refusal at [max_transactions] is a lifetime bound: no relaunch
       can get past it. *)
    reply_send reply
      (Outcome { o_gid = gid; o_shard = st.id; o_committed = false; o_retryable = false })
  end
  else begin
    ignore (E.form_dependency eng Dep_type.GC part stub : bool);
    ignore (E.begin_ eng part : bool);
    ignore (E.begin_ eng stub : bool);
    E.spawn eng ~label:(Printf.sprintf "xshard-mon g%d" gid) (fun () ->
        let prepared = E.wait eng part in
        reply_send reply (Vote { v_gid = gid; v_shard = st.id; v_prepared = prepared; v_stub = stub });
        Sched.wait_until ~reason:"xshard verdict" (fun () -> !dec <> None);
        let committed =
          match !dec with
          | Some Commit -> E.commit eng stub
          | Some Abort | None ->
              ignore (E.abort eng stub : bool);
              false
        in
        Hashtbl.remove decisions gid;
        let o_retryable = Workload.retryable (E.failure_of eng part) in
        reply_send reply
          (Outcome { o_gid = gid; o_shard = st.id; o_committed = committed; o_retryable }))
  end

let handle st decisions = function
  | Exec { body; max_retries } -> handle_exec st body max_retries
  | Participate { gid; body; reply } -> handle_participate st decisions gid body reply
  | Decide { gid; verdict } -> (
      match Hashtbl.find_opt decisions gid with
      | Some dec -> if !dec = None then dec := Some verdict
      | None -> ())

(* Presumed abort: the inbox closed with cross-shard transactions
   still undecided — the coordinator is gone and no verdict can ever
   arrive, so every undecided stub aborts (2PC: no decision record
   means abort).  Their monitors wake, abort, and release everything
   through the normal GC-propagation path. *)
let presume_abort decisions =
  Hashtbl.iter (fun _ dec -> if !dec = None then dec := Some Abort) decisions

(* The pump fiber: drains the inbox from inside the scheduler, so
   message handling interleaves cooperatively with transaction
   fibers.  Parks on a polled condition; the stall hook below does the
   actual cross-domain blocking. *)
let rec pump st decisions =
  match Channel.try_recv st.inbox with
  | Some m ->
      handle st decisions m;
      pump st decisions
  | None ->
      if Channel.is_closed st.inbox then presume_abort decisions
      else begin
        Sched.wait_until ~reason:"shard inbox" (fun () ->
            (not (Channel.is_empty st.inbox)) || Channel.is_closed st.inbox);
        pump st decisions
      end

(* The cross-domain wakeup path.  Stall order matters: messages first
   (they can unblock anything), then the engine's own resolution
   (deadlock victim / timeout tick), then genuinely block on the
   mailbox — zero CPU until another domain sends.  After close, report
   progress once so the pump can run its presumed-abort sweep, then
   let a true stall surface as Deadlock. *)
let make_on_stall st =
  let saw_close = ref false in
  fun () ->
    if not (Channel.is_empty st.inbox) then true
    else if E.resolve_stall st.engine then begin
      (* Progress was engine-internal (e.g. a lock-wait timeout tick).
         Yield the OS timeslice, not just the pipeline: on few-core
         hosts the remote verdict can only arrive if the other domains
         actually get scheduled, and the timeout rounds must burn real
         time, not microseconds, or waiters give up long before any
         cross-domain round-trip could complete. *)
      if Channel.is_empty st.inbox then Unix.sleepf 2e-5;
      true
    end
    else if Channel.is_closed st.inbox then
      if !saw_close then false
      else begin
        saw_close := true;
        true
      end
    else begin
      ignore (Channel.wait_nonempty st.inbox : bool);
      true
    end

let server st ~trace ~trace_capacity ~max_steps =
  if trace then Trace.start ~capacity:trace_capacity ~shard:(st.id + 1) ~sinks:[ Trace.Memory st.mem ] ();
  Fun.protect
    ~finally:(fun () -> if trace then Trace.stop ())
    (fun () ->
      let sched = Sched.create ~max_steps () in
      E.attach_scheduler st.engine sched;
      Sched.set_on_stall sched (make_on_stall st);
      let decisions : (int, decision option ref) Hashtbl.t = Hashtbl.create 32 in
      ignore (Sched.spawn sched ~label:"pump" (fun () -> pump st decisions) : int);
      match Sched.run sched with
      | () -> E.flush_pending_commits st.engine
      | exception e -> Atomic.set st.error (Some e))

(* ------------------------------------------------------------------ *)
(* Driver-side surface. *)

let shard_of t oid = Oid.partition oid t.n

let create ?(engine_config = default_engine_config) ?(inbox_capacity = 256) ?(trace = false)
    ?(trace_capacity = 65536) ?(max_steps = 200_000_000) ?(objects = 0)
    ?(init = fun _ -> Value.of_int 0) ~domains () =
  if domains < 1 then invalid_arg "Shard.create: domains must be >= 1";
  let shards =
    Array.init domains (fun i ->
        let store = Heap_store.store ~name:(Printf.sprintf "shard%d" i) () in
        for oid = 1 to objects do
          if oid mod domains = i then Store.write store (Oid.of_int oid) (init oid)
        done;
        {
          id = i;
          engine =
            E.create ~config:engine_config
              ~tid_gen:(Tid.generator ~start:(i + 1) ~stride:domains ())
              store;
          inbox = Channel.create ~capacity:inbox_capacity ();
          mem = ref [];
          exec_pending = Atomic.make 0;
          error = Atomic.make None;
          rng = Rng.create i;
          domain = None;
        })
  in
  (* Driver-lane recorder (shard id 0): captures the coordinator's XGC
     events.  Only if the caller has not installed their own. *)
  let main_mem =
    if trace && not (Trace.on ()) then begin
      let l, sink = Trace.memory_sink () in
      Trace.start ~capacity:trace_capacity ~shard:0 ~sinks:[ sink ] ();
      Some l
    end
    else None
  in
  let t = { n = domains; shards; gid_gen = Atomic.make 1; main_mem; closed = false } in
  Array.iter (fun st -> st.domain <- Some (Domain.spawn (fun () -> server st ~trace ~trace_capacity ~max_steps))) shards;
  t

let domains t = t.n
let engine t i = t.shards.(i).engine

let check_errors t =
  Array.iter (fun st -> match Atomic.get st.error with Some e -> raise e | None -> ()) t.shards

let submit ?(max_retries = 10) t ~shard body =
  if t.closed then invalid_arg "Shard.submit: already shut down";
  let st = t.shards.(shard) in
  Atomic.incr st.exec_pending;
  Channel.send st.inbox (Exec { body; max_retries })

let pending t = Array.fold_left (fun acc st -> acc + Atomic.get st.exec_pending) 0 t.shards

let drain t =
  while pending t > 0 do
    check_errors t;
    Unix.sleepf 0.0002
  done;
  check_errors t

let shutdown t =
  if not t.closed then begin
    t.closed <- true;
    Array.iter (fun st -> Channel.close st.inbox) t.shards;
    Array.iter
      (fun st ->
        match st.domain with
        | Some d ->
            Domain.join d;
            st.domain <- None
        | None -> ())
      t.shards;
    if t.main_mem <> None then Trace.stop ();
    check_errors t
  end

let merged_trace t =
  if not t.closed then invalid_arg "Shard.merged_trace: call shutdown first";
  let shard_histories = Array.to_list (Array.map (fun st -> Trace.entries st.mem) t.shards) in
  let driver = match t.main_mem with Some l -> [ Trace.entries l ] | None -> [] in
  Trace.merge (driver @ shard_histories)

let stats t =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let add (k, v) = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  Array.iter
    (fun st ->
      List.iter add (E.stats st.engine);
      List.iter (fun (k, v) -> add ("chan." ^ k, v)) (Channel.stats st.inbox))
    t.shards;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* ------------------------------------------------------------------ *)
(* The 2PC coordinator. *)

module Coord = struct
  type inflight = {
    i_parts : (int * (E.t -> unit)) list;
    i_retries : int;
    mutable i_sent : int;
    mutable i_votes : vote list;
    mutable i_outcomes : outcome list;
  }

  type coord = {
    sys : t;
    reply : reply Channel.t;
    inflight : (int, inflight) Hashtbl.t;
    max_inflight : int;
    max_retries : int;
    ordered : bool;
    site : Fault.site;
    mutable c_committed : int;
    mutable c_aborted : int;
    mutable c_mixed : int;
  }

  let decide_site = "shard.coord.decide"

  let create ?(max_inflight = 16) ?(max_retries = 10) ?(ordered = false) sys =
    if max_inflight < 1 then invalid_arg "Coord.create: max_inflight must be >= 1";
    {
      sys;
      (* every in-flight gid can owe one vote and one outcome per
         shard, and sends must never block the shard domains — size
         for the worst case *)
      reply = Channel.create ~capacity:(2 * sys.n * (max_inflight + 1)) ();
      inflight = Hashtbl.create 32;
      max_inflight;
      max_retries;
      ordered;
      site = Fault.register decide_site;
      c_committed = 0;
      c_aborted = 0;
      c_mixed = 0;
    }

  let dispatch c gid f =
    let s, body = List.nth f.i_parts f.i_sent in
    f.i_sent <- f.i_sent + 1;
    Channel.send c.sys.shards.(s).inbox (Participate { gid; body; reply = c.reply })

  (* Install one attempt of a cross-shard transaction under a fresh
     gid.  Also the retry path: an all-aborted outcome whose every
     participant reports a [Workload.retryable] failure (a lock-wait
     timeout or deadlock victim on some shard — transient, contention-
     induced) is relaunched rather than surfaced, just as [handle_exec]
     retries transient single-shard aborts; a real body failure is
     not.

     With [ordered], participants are dispatched one at a time, each
     only after the previous one voted to prepare: if callers list
     participants in a globally consistent order (say, by least object
     id touched), no group ever holds a later-ordered lock while
     waiting on an earlier one, so cross-shard transactions cannot form
     a distributed deadlock — total-order acquisition, at the price of
     one extra verdict-latency round per participant. *)
  let launch c f =
    let gid = Atomic.fetch_and_add c.sys.gid_gen 1 in
    f.i_sent <- 0;
    Hashtbl.replace c.inflight gid f;
    if c.ordered then dispatch c gid f
    else while f.i_sent < List.length f.i_parts do dispatch c gid f done

  (* Process one reply.  A complete vote set is the decision point: if
     every participant prepared, chain XGC trace edges over the stubs —
     the coordinator's commit decision record, and the cross-shard
     group-commit obligation the oracle checks (aborts are presumed and
     need no record) — then pass the crash failpoint, then send the
     verdict to every participant shard. *)
  let process c = function
    | Vote v -> (
        match Hashtbl.find_opt c.inflight v.v_gid with
        | None -> ()
        | Some f ->
            f.i_votes <- v :: f.i_votes;
            if List.length f.i_votes = f.i_sent then begin
              let all_prepared = List.for_all (fun v -> v.v_prepared) f.i_votes in
              if all_prepared && f.i_sent < List.length f.i_parts then
                (* ordered dispatch: this vote admits the next
                   participant; the decision point is still ahead *)
                dispatch c v.v_gid f
              else begin
              let votes = List.sort (fun a b -> compare a.v_shard b.v_shard) f.i_votes in
              let verdict = if all_prepared then Commit else Abort in
              if verdict = Commit && Trace.on () then begin
                let rec chain = function
                  | a :: (b :: _ as rest) ->
                      if not (Tid.is_null a.v_stub || Tid.is_null b.v_stub) then
                        Trace.emit (Trace.Dep { dtype = "XGC"; master = a.v_stub; dependent = b.v_stub });
                      chain rest
                  | _ -> ()
                in
                chain votes
              end;
              Fault.hit c.site;
              List.iter
                (fun v ->
                  if not (Tid.is_null v.v_stub) then
                    Channel.send c.sys.shards.(v.v_shard).inbox (Decide { gid = v.v_gid; verdict }))
                votes
              end
            end)
    | Outcome o -> (
        match Hashtbl.find_opt c.inflight o.o_gid with
        | None -> ()
        | Some f ->
            (* [f.i_sent], not the participant count: under ordered
               dispatch an aborted group may never have dispatched its
               tail participants, and they owe no outcome. *)
            f.i_outcomes <- o :: f.i_outcomes;
            if List.length f.i_outcomes = f.i_sent then begin
              Hashtbl.remove c.inflight o.o_gid;
              match List.sort_uniq compare (List.map (fun o -> o.o_committed) f.i_outcomes) with
              | [ true ] -> c.c_committed <- c.c_committed + 1
              | [ false ] ->
                  let retryable = List.for_all (fun o -> o.o_retryable) f.i_outcomes in
                  if retryable && f.i_retries < c.max_retries then
                    launch c { f with i_retries = f.i_retries + 1; i_votes = []; i_outcomes = [] }
                  else c.c_aborted <- c.c_aborted + 1
              | _ -> c.c_mixed <- c.c_mixed + 1
            end)

  let step c = match Channel.recv c.reply with None -> () | Some r -> process c r

  (* Non-blocking step, for interleaving coordinator progress with
     other driver-side work (e.g. waiting out single-shard drains):
     verdicts keep flowing, prepared participants release their locks
     promptly instead of stalling everything queued behind them. *)
  let try_step c = match Channel.try_recv c.reply with None -> false | Some r -> process c r; true

  let inflight_count c = Hashtbl.length c.inflight

  let submit c parts =
    if parts = [] then invalid_arg "Coord.submit: no participants";
    let shards = List.map fst parts in
    if List.length (List.sort_uniq compare shards) <> List.length shards then
      invalid_arg "Coord.submit: duplicate participant shard";
    while Hashtbl.length c.inflight >= c.max_inflight do
      step c
    done;
    launch c { i_parts = parts; i_retries = 0; i_sent = 0; i_votes = []; i_outcomes = [] }

  let drain c =
    while Hashtbl.length c.inflight > 0 do
      check_errors c.sys;
      step c
    done

  let committed c = c.c_committed
  let aborted c = c.c_aborted
  let mixed c = c.c_mixed
end
