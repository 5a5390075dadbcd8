(* Deterministic fault injection: named failpoints at every I/O site.

   A failpoint is a registered site ("wal.append", "wal.force",
   ...) holding an injectable policy.  Instrumented code calls [hit]
   (or [check], for sites that need custom semantics such as torn
   writes) on its site at the point where the real I/O happens; with
   the policy [Off] — the production state — that costs one load and
   one branch.

   Two injectable outcomes:

   - a *failure* raises [Injected], modelling an I/O error (EIO, short
     write, failed fsync).  Instrumented layers wrap it — together with
     real [Unix_error]/[Sys_error] — into [Storage_error], so the
     engine sees one classifiable error type whatever the source.

   - a *crash* raises [Crash], modelling power loss at that
     instruction.  Nothing catches it below the torture harness, which
     discards all volatile state (staging buffers, the object store)
     and re-opens from disk, exactly as a restart would.

   All randomized triggers draw from the repository's SplitMix64 RNG so
   every fault schedule is reproducible from a seed. *)

exception Crash of string
(** Simulated power loss at the named site. *)

exception Injected of string
(** Simulated I/O failure at the named site. *)

exception Storage_error of string * exn
(** A storage-layer primitive failed: the site ("wal.append",
    "wal.force", ...) and the underlying cause ([Injected] or a real
    [Unix.Unix_error]/[Sys_error]). *)

type policy =
  | Off
  | Fail_once
  | Fail_nth of int (* fail the nth hit from now (1-based), then disarm *)
  | Fail_prob of float * Asset_util.Rng.t
  | Crash_once
  | Crash_nth of int
  | Crash_prob of float * Asset_util.Rng.t
  | Disk_full of int (* byte budget; appends fail once it is exhausted *)
  | Arm_at of int * site * policy
      (* on the nth hit from now, arm another site; the hit passes *)

and site = {
  name : string;
  mutable policy : policy;
  mutable hits : int; (* times the site was evaluated *)
  mutable fired : int; (* times an action actually triggered *)
}

(* The registry is process-global and shared by every domain (a WAL
   instance on shard 3 and one on shard 0 both resolve "wal.append" to
   the same site), so its structure is mutex-protected.  Per-site
   counters are plain mutable ints: domains race on [hits], which can
   lose increments, but an unarmed site's counter is diagnostic only.
   Arming/disarming while other domains are running is not supported —
   tests arm sites before spawning shards (or only ever trip them from
   the driving domain). *)
let registry : (string, site) Hashtbl.t = Hashtbl.create 32
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let register name =
  locked (fun () ->
      match Hashtbl.find_opt registry name with
      | Some site -> site
      | None ->
          let site = { name; policy = Off; hits = 0; fired = 0 } in
          Hashtbl.add registry name site;
          site)

let find name = locked (fun () -> Hashtbl.find_opt registry name)
let sites () = locked (fun () -> Hashtbl.fold (fun _ s acc -> s :: acc) registry []) |> List.sort compare
let arm site policy = site.policy <- policy

let arm_name name policy =
  match find name with
  | Some site ->
      arm site policy;
      true
  | None -> false

let off site = site.policy <- Off

let reset site =
  site.policy <- Off;
  site.hits <- 0;
  site.fired <- 0

let reset_all () = locked (fun () -> Hashtbl.iter (fun _ site -> reset site) registry)
let hits site = site.hits
let fired site = site.fired

(* Evaluate the site's policy for one hit.  One-shot triggers disarm
   themselves so a fired fault never re-fires across a recovery. *)
let check site =
  site.hits <- site.hits + 1;
  match site.policy with
  | Off -> None
  | Fail_once ->
      site.policy <- Off;
      site.fired <- site.fired + 1;
      Some `Fail
  | Fail_nth n ->
      if n <= 1 then begin
        site.policy <- Off;
        site.fired <- site.fired + 1;
        Some `Fail
      end
      else begin
        site.policy <- Fail_nth (n - 1);
        None
      end
  | Fail_prob (p, rng) ->
      if Asset_util.Rng.float rng < p then begin
        site.fired <- site.fired + 1;
        Some `Fail
      end
      else None
  | Crash_once ->
      site.policy <- Off;
      site.fired <- site.fired + 1;
      Some `Crash
  | Crash_nth n ->
      if n <= 1 then begin
        site.policy <- Off;
        site.fired <- site.fired + 1;
        Some `Crash
      end
      else begin
        site.policy <- Crash_nth (n - 1);
        None
      end
  | Crash_prob (p, rng) ->
      if Asset_util.Rng.float rng < p then begin
        site.fired <- site.fired + 1;
        Some `Crash
      end
      else None
  (* A plain (sizeless) hit on a disk-full site models a zero-byte
     probe: it only fails once the budget is already exhausted. *)
  | Disk_full budget ->
      if budget > 0 then None
      else begin
        site.fired <- site.fired + 1;
        Some `Fail
      end
  | Arm_at (n, other, policy) ->
      if n <= 1 then begin
        site.policy <- Off;
        site.fired <- site.fired + 1;
        other.policy <- policy
      end
      else site.policy <- Arm_at (n - 1, other, policy);
      None

(* Evaluate one hit that wants to consume [bytes] of disk.  [Disk_full]
   is the only size-aware policy: the write passes while the budget
   covers it, and once the budget is exhausted every further write
   fails — the policy stays armed (a full disk stays full), so clean
   abort paths must cope with appends failing repeatedly. *)
let check_bytes site bytes =
  match site.policy with
  | Disk_full budget ->
      site.hits <- site.hits + 1;
      if bytes <= budget then begin
        site.policy <- Disk_full (budget - bytes);
        None
      end
      else begin
        site.fired <- site.fired + 1;
        Some `Fail
      end
  | _ -> check site

let hit site =
  match check site with
  | None -> ()
  | Some `Fail -> raise (Injected site.name)
  | Some `Crash -> raise (Crash site.name)

let hit_bytes site bytes =
  match check_bytes site bytes with
  | None -> ()
  | Some `Fail -> raise (Injected site.name)
  | Some `Crash -> raise (Crash site.name)

(* Run an I/O action under a site's typed-error discipline: injected
   and real I/O failures surface as [Storage_error]; [Crash] — and any
   already-classified [Storage_error] from a nested site — passes
   through untouched. *)
let protect name f =
  try f () with (Unix.Unix_error _ | Sys_error _ | Injected _) as cause -> raise (Storage_error (name, cause))

(* The production fast path: [Off] must cost one load and one branch on
   the I/O hot paths (every WAL append goes through here), so skip the
   closure and the handler entirely unless the site is armed. *)
let hit_io site =
  match site.policy with
  | Off -> site.hits <- site.hits + 1
  | _ -> protect site.name (fun () -> hit site)

let hit_io_bytes site bytes =
  match site.policy with
  | Off -> site.hits <- site.hits + 1
  | _ -> protect site.name (fun () -> hit_bytes site bytes)

let io site f =
  match site.policy with
  | Off ->
      site.hits <- site.hits + 1;
      protect site.name f
  | _ ->
      protect site.name (fun () ->
          hit site;
          f ())

let pp_site ppf site =
  let policy =
    match site.policy with
    | Off -> "off"
    | Fail_once -> "fail-once"
    | Fail_nth n -> Printf.sprintf "fail-nth %d" n
    | Fail_prob (p, _) -> Printf.sprintf "fail-prob %.3f" p
    | Crash_once -> "crash-once"
    | Crash_nth n -> Printf.sprintf "crash-nth %d" n
    | Crash_prob (p, _) -> Printf.sprintf "crash-prob %.3f" p
    | Disk_full budget -> Printf.sprintf "disk-full %dB" budget
    | Arm_at (n, other, _) -> Printf.sprintf "arm %s at hit %d" other.name n
  in
  Format.fprintf ppf "%s: %s (hits=%d fired=%d)" site.name policy site.hits site.fired
