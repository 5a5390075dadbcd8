(* Structured event traces: an append-only history of every ASSET
   primitive invocation, lock transition and WAL/recovery milestone,
   stamped with logical timestamps.

   The recorder is a process-global flight recorder in the style of
   [Fault]'s failpoint registry: instrumented sites guard their emit
   with [if Trace.on () then Trace.emit (...)], so the production state
   (recorder absent) costs one load and one branch per site and
   allocates nothing — the E17/E18 benches pin this.  When a recorder
   is installed, every event lands in a fixed-capacity ring (the tail
   survives a simulated power loss, because the recorder lives above
   the storage stack the torture harness discards) and is fanned out to
   the pluggable sinks: [Memory] accumulates the full history for the
   oracle, [Jsonl] streams one JSON object per line for offline
   analysis.

   Events name transactions and objects by their public ids and carry
   no engine state, so the trace is a pure observation: replaying it
   through [Oracle] cannot perturb the run it describes. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid

type lock_action =
  | Request (* lock asked for, outcome not yet known *)
  | Grant (* request (or upgrade) granted *)
  | Block (* requester enqueued behind conflicting holders *)
  | Upgrade (* granted lock strengthened in place *)
  | Release (* granted lock dropped *)
  | Suspend (* granted lock suspended by a permit-driven conflict *)
  | Resume (* suspended lock re-granted *)
  | Transfer (* ownership moved by delegation *)

type event =
  | Initiate of { tid : Tid.t; parent : Tid.t } (* parent = Tid.null for top level *)
  | Begin of { tid : Tid.t }
  | Commit of { tids : Tid.t list; ts : int }
    (* whole group-commit set, atomically; [ts] is the commit timestamp
       stamped on the published versions (0 when versioning is off) *)
  | Abort of { tid : Tid.t }
  | Op of { tid : Tid.t; oid : Oid.t; op : char } (* 'R' | 'W' | 'I' | 'E' | 'Q' *)
  | Snapshot of { tid : Tid.t; ts : int }
    (* a read-only transaction began against the snapshot at [ts] *)
  | Snap_read of { tid : Tid.t; oid : Oid.t; ts : int }
    (* lock-free snapshot read; [ts] is the commit timestamp of the
       version returned (0 = the initial, never-engine-written state) *)
  | Delegate of { from_ : Tid.t; to_ : Tid.t; moved : Oid.t list }
  | Permit of { from_ : Tid.t; to_ : Tid.t; oids : Oid.t list; ops : string }
    (* to_ = Tid.null means "any transaction"; ops is a subset of "RWI" *)
  | Dep of { dtype : string; master : Tid.t; dependent : Tid.t }
  | Lock of { tid : Tid.t; oid : Oid.t; mode : char; action : lock_action }
  | Wal_append of { lsn : int; kind : string }
  | Wal_force of { lsn : int }
  | Ckpt_begin of { lsn : int; active : int }
    (* fuzzy checkpoint opened at [lsn], capturing [active] in-flight txns *)
  | Ckpt_end of { lsn : int; begin_lsn : int }
  | Wal_retire of { below : int; segments : int }
    (* [segments] log segments wholly below LSN [below] were deleted *)
  | Recovery_start
  | Recovery_done of { winners : Tid.t list; losers : Tid.t list }
  | Sched_spawn of { fid : int; label : string }
  | Sched_stall

type entry = { seq : int; shard : int; ev : event }
(* [seq] is the logical timestamp: a strictly increasing integer
   assigned at emit time.  The scheduler is cooperative, so emit order
   is the real interleaving order — within one shard.  [shard] is the
   recorder's shard id (0 for the classic single-engine setup); [merge]
   interleaves per-shard histories into one replayable history. *)

type sink = Memory of entry list ref (* newest first *) | Jsonl of out_channel

type t = {
  mutable seq : int;
  shard : int;
  ring : entry array;
  cap : int;
  sinks : sink list;
}

let dummy = { seq = 0; shard = 0; ev = Sched_stall }

(* One recorder slot per domain: each shard of the multicore engine
   traces into its own domain-local recorder, so emit needs no lock and
   per-shard seq order is exactly that shard's interleaving order. *)
let slot : t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)
let current () = Domain.DLS.get slot

(* The hot-path guard: one DLS load, one compare-with-immediate. *)
let on () = !(current ()) <> None

let lock_action_to_string = function
  | Request -> "request"
  | Grant -> "grant"
  | Block -> "block"
  | Upgrade -> "upgrade"
  | Release -> "release"
  | Suspend -> "suspend"
  | Resume -> "resume"
  | Transfer -> "transfer"

let lock_action_of_string = function
  | "request" -> Request
  | "grant" -> Grant
  | "block" -> Block
  | "upgrade" -> Upgrade
  | "release" -> Release
  | "suspend" -> Suspend
  | "resume" -> Resume
  | "transfer" -> Transfer
  | s -> invalid_arg ("Trace.lock_action_of_string: " ^ s)

(* ------------------------------------------------------------------ *)
(* JSONL codec: one [Asset_util.Json] object per entry. *)

module Json = Asset_util.Json

exception Parse_error = Json.Parse_error

let tid_j t = Json.Int (Tid.to_int t)
let oid_j o = Json.Int (Oid.to_int o)
let tids_j ts = Json.List (List.map tid_j ts)
let oids_j os = Json.List (List.map oid_j os)

let event_fields = function
  | Initiate { tid; parent } -> [ ("ev", Json.Str "initiate"); ("tid", tid_j tid); ("parent", tid_j parent) ]
  | Begin { tid } -> [ ("ev", Json.Str "begin"); ("tid", tid_j tid) ]
  | Commit { tids; ts } -> [ ("ev", Json.Str "commit"); ("tids", tids_j tids); ("ts", Json.Int ts) ]
  | Abort { tid } -> [ ("ev", Json.Str "abort"); ("tid", tid_j tid) ]
  | Op { tid; oid; op } ->
      [ ("ev", Json.Str "op"); ("tid", tid_j tid); ("oid", oid_j oid); ("op", Json.Str (String.make 1 op)) ]
  | Snapshot { tid; ts } -> [ ("ev", Json.Str "snapshot"); ("tid", tid_j tid); ("ts", Json.Int ts) ]
  | Snap_read { tid; oid; ts } ->
      [ ("ev", Json.Str "snap_read"); ("tid", tid_j tid); ("oid", oid_j oid); ("ts", Json.Int ts) ]
  | Delegate { from_; to_; moved } ->
      [ ("ev", Json.Str "delegate"); ("from", tid_j from_); ("to", tid_j to_); ("moved", oids_j moved) ]
  | Permit { from_; to_; oids; ops } ->
      [ ("ev", Json.Str "permit"); ("from", tid_j from_); ("to", tid_j to_); ("oids", oids_j oids); ("ops", Json.Str ops) ]
  | Dep { dtype; master; dependent } ->
      [ ("ev", Json.Str "dep"); ("dtype", Json.Str dtype); ("master", tid_j master); ("dependent", tid_j dependent) ]
  | Lock { tid; oid; mode; action } ->
      [
        ("ev", Json.Str "lock");
        ("tid", tid_j tid);
        ("oid", oid_j oid);
        ("mode", Json.Str (String.make 1 mode));
        ("action", Json.Str (lock_action_to_string action));
      ]
  | Wal_append { lsn; kind } -> [ ("ev", Json.Str "wal_append"); ("lsn", Json.Int lsn); ("kind", Json.Str kind) ]
  | Wal_force { lsn } -> [ ("ev", Json.Str "wal_force"); ("lsn", Json.Int lsn) ]
  | Ckpt_begin { lsn; active } -> [ ("ev", Json.Str "ckpt_begin"); ("lsn", Json.Int lsn); ("active", Json.Int active) ]
  | Ckpt_end { lsn; begin_lsn } -> [ ("ev", Json.Str "ckpt_end"); ("lsn", Json.Int lsn); ("begin_lsn", Json.Int begin_lsn) ]
  | Wal_retire { below; segments } ->
      [ ("ev", Json.Str "wal_retire"); ("below", Json.Int below); ("segments", Json.Int segments) ]
  | Recovery_start -> [ ("ev", Json.Str "recovery_start") ]
  | Recovery_done { winners; losers } ->
      [ ("ev", Json.Str "recovery_done"); ("winners", tids_j winners); ("losers", tids_j losers) ]
  | Sched_spawn { fid; label } -> [ ("ev", Json.Str "sched_spawn"); ("fid", Json.Int fid); ("label", Json.Str label) ]
  | Sched_stall -> [ ("ev", Json.Str "sched_stall") ]

let entry_to_json (e : entry) =
  let fields = event_fields e.ev in
  (* Shard 0 is omitted so single-engine histories keep the pre-shard format. *)
  let fields = if e.shard = 0 then fields else ("shard", Json.Int e.shard) :: fields in
  Json.to_string (Json.Obj (("seq", Json.Int e.seq) :: fields))

let char_of_field j name =
  let s = Json.to_str (Json.member name j) in
  if String.length s <> 1 then raise (Json.Parse_error ("bad one-char field " ^ name));
  s.[0]

let event_of_json j =
  let tid name = Tid.of_int (Json.to_int (Json.member name j)) in
  let oid name = Oid.of_int (Json.to_int (Json.member name j)) in
  let tids name = List.map (fun v -> Tid.of_int (Json.to_int v)) (Json.to_list (Json.member name j)) in
  let oids name = List.map (fun v -> Oid.of_int (Json.to_int v)) (Json.to_list (Json.member name j)) in
  let str name = Json.to_str (Json.member name j) in
  let int name = Json.to_int (Json.member name j) in
  match str "ev" with
  | "initiate" -> Initiate { tid = tid "tid"; parent = tid "parent" }
  | "begin" -> Begin { tid = tid "tid" }
  | "commit" ->
      (* Tolerate histories recorded before commit timestamps existed. *)
      let ts = match j with Json.Obj fields when List.mem_assoc "ts" fields -> int "ts" | _ -> 0 in
      Commit { tids = tids "tids"; ts }
  | "abort" -> Abort { tid = tid "tid" }
  | "op" -> Op { tid = tid "tid"; oid = oid "oid"; op = char_of_field j "op" }
  | "snapshot" -> Snapshot { tid = tid "tid"; ts = int "ts" }
  | "snap_read" -> Snap_read { tid = tid "tid"; oid = oid "oid"; ts = int "ts" }
  | "delegate" -> Delegate { from_ = tid "from"; to_ = tid "to"; moved = oids "moved" }
  | "permit" -> Permit { from_ = tid "from"; to_ = tid "to"; oids = oids "oids"; ops = str "ops" }
  | "dep" -> Dep { dtype = str "dtype"; master = tid "master"; dependent = tid "dependent" }
  | "lock" ->
      Lock { tid = tid "tid"; oid = oid "oid"; mode = char_of_field j "mode"; action = lock_action_of_string (str "action") }
  | "wal_append" -> Wal_append { lsn = int "lsn"; kind = str "kind" }
  | "wal_force" -> Wal_force { lsn = int "lsn" }
  | "ckpt_begin" -> Ckpt_begin { lsn = int "lsn"; active = int "active" }
  | "ckpt_end" -> Ckpt_end { lsn = int "lsn"; begin_lsn = int "begin_lsn" }
  | "wal_retire" -> Wal_retire { below = int "below"; segments = int "segments" }
  | "recovery_start" -> Recovery_start
  | "recovery_done" -> Recovery_done { winners = tids "winners"; losers = tids "losers" }
  | "sched_spawn" -> Sched_spawn { fid = int "fid"; label = str "label" }
  | "sched_stall" -> Sched_stall
  | ev -> raise (Json.Parse_error ("unknown event kind " ^ ev))

let entry_of_json line =
  let j = Json.parse line in
  (* Tolerate histories recorded before shard ids existed. *)
  let shard = match j with Json.Obj fields when List.mem_assoc "shard" fields -> Json.to_int (Json.member "shard" j) | _ -> 0 in
  { seq = Json.to_int (Json.member "seq" j); shard; ev = event_of_json j }

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec loop acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | "" -> loop acc
        | line -> loop (entry_of_json line :: acc)
      in
      loop [])

(* ------------------------------------------------------------------ *)
(* Recorder lifecycle. *)

let start ?(capacity = 4096) ?(shard = 0) ?(sinks = []) () =
  if capacity <= 0 then invalid_arg "Trace.start: capacity must be positive";
  if shard < 0 then invalid_arg "Trace.start: shard must be >= 0";
  current () := Some { seq = 0; shard; ring = Array.make capacity dummy; cap = capacity; sinks }

let stop () =
  let cur = current () in
  (match !cur with
  | None -> ()
  | Some r -> List.iter (function Jsonl oc -> flush oc | Memory _ -> ()) r.sinks);
  cur := None

let seq () = match !(current ()) with None -> 0 | Some r -> r.seq

let emit ev =
  match !(current ()) with
  | None -> ()
  | Some r ->
      r.seq <- r.seq + 1;
      let e = { seq = r.seq; shard = r.shard; ev } in
      r.ring.((r.seq - 1) mod r.cap) <- e;
      List.iter
        (function
          | Memory l -> l := e :: !l
          | Jsonl oc ->
              output_string oc (entry_to_json e);
              output_char oc '\n')
        r.sinks

(* The retained tail of the history, oldest first: the last [cap]
   events (or all of them, if fewer were emitted). *)
let recent () =
  match !(current ()) with
  | None -> []
  | Some r ->
      let first = max 1 (r.seq - r.cap + 1) in
      let rec collect s acc = if s < first then acc else collect (s - 1) (r.ring.((s - 1) mod r.cap) :: acc) in
      collect r.seq []

let memory_sink () =
  let l = ref [] in
  (l, Memory l)

let jsonl_sink oc = Jsonl oc

(* Collected entries of a memory sink, oldest first. *)
let entries l = List.rev !l

(* Run [f] under a fresh memory-sink recorder; restore the previous
   recorder (almost always: none) afterwards, even on exception. *)
let with_memory ?capacity ?shard f =
  let l, sink = memory_sink () in
  let cur = current () in
  let saved = !cur in
  start ?capacity ?shard ~sinks:[ sink ] ();
  Fun.protect
    ~finally:(fun () ->
      stop ();
      cur := saved)
    (fun () ->
      let v = f () in
      (v, entries l))

(* ------------------------------------------------------------------ *)
(* Merging per-shard histories.

   Each shard's [seq] is its own logical clock, and both clocks start
   at 1 and tick at every event, so ordering the union by [seq] (ties
   broken by shard id via the stable sort over the concatenation order)
   yields an interleaving that (a) preserves every shard's internal
   order and (b) dovetails the shards fairly.  Any interleaving that
   respects per-shard order is a legal history of the concurrent
   execution — shards share no objects except through the coordinator's
   explicit messages, which appear in both shards' histories in
   causally consistent positions.  The merged sequence is renumbered so
   the oracle sees one strictly increasing clock. *)
let merge (histories : entry list list) : entry list =
  let all = List.concat histories in
  let sorted = List.stable_sort (fun (a : entry) (b : entry) -> compare a.seq b.seq) all in
  List.mapi (fun i (e : entry) -> { e with seq = i + 1 }) sorted

(* ------------------------------------------------------------------ *)
(* Pretty-printing for test failure messages. *)

let pp_event ppf = function
  | Initiate { tid; parent } ->
      if Tid.is_null parent then Format.fprintf ppf "initiate %a" Tid.pp tid
      else Format.fprintf ppf "initiate %a parent=%a" Tid.pp tid Tid.pp parent
  | Begin { tid } -> Format.fprintf ppf "begin %a" Tid.pp tid
  | Commit { tids; ts } ->
      Format.fprintf ppf "commit [%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Tid.pp) tids;
      if ts > 0 then Format.fprintf ppf " ts=%d" ts
  | Abort { tid } -> Format.fprintf ppf "abort %a" Tid.pp tid
  | Op { tid; oid; op } -> Format.fprintf ppf "%c(%a,%a)" op Tid.pp tid Oid.pp oid
  | Snapshot { tid; ts } -> Format.fprintf ppf "snapshot %a ts=%d" Tid.pp tid ts
  | Snap_read { tid; oid; ts } -> Format.fprintf ppf "S(%a,%a)@@%d" Tid.pp tid Oid.pp oid ts
  | Delegate { from_; to_; moved } ->
      Format.fprintf ppf "delegate %a->%a [%a]" Tid.pp from_ Tid.pp to_
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Oid.pp)
        moved
  | Permit { from_; to_; oids; ops } ->
      Format.fprintf ppf "permit %a->%a ops=%s [%a]" Tid.pp from_ Tid.pp to_ ops
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Oid.pp)
        oids
  | Dep { dtype; master; dependent } -> Format.fprintf ppf "dep %s %a->%a" dtype Tid.pp master Tid.pp dependent
  | Lock { tid; oid; mode; action } ->
      Format.fprintf ppf "lock %s %a %a %c" (lock_action_to_string action) Tid.pp tid Oid.pp oid mode
  | Wal_append { lsn; kind } -> Format.fprintf ppf "wal_append lsn=%d %s" lsn kind
  | Wal_force { lsn } -> Format.fprintf ppf "wal_force lsn=%d" lsn
  | Ckpt_begin { lsn; active } -> Format.fprintf ppf "ckpt_begin lsn=%d active=%d" lsn active
  | Ckpt_end { lsn; begin_lsn } -> Format.fprintf ppf "ckpt_end lsn=%d begin=%d" lsn begin_lsn
  | Wal_retire { below; segments } -> Format.fprintf ppf "wal_retire below=%d segments=%d" below segments
  | Recovery_start -> Format.fprintf ppf "recovery_start"
  | Recovery_done { winners; losers } ->
      Format.fprintf ppf "recovery_done winners=[%a] losers=[%a]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Tid.pp)
        winners
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf " ") Tid.pp)
        losers
  | Sched_spawn { fid; label } -> Format.fprintf ppf "sched_spawn %d %s" fid label
  | Sched_stall -> Format.fprintf ppf "sched_stall"

let pp_entry ppf (e : entry) =
  if e.shard = 0 then Format.fprintf ppf "@[%6d %a@]" e.seq pp_event e.ev
  else Format.fprintf ppf "@[%6d s%d %a@]" e.seq e.shard pp_event e.ev
