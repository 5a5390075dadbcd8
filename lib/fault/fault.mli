(** Deterministic fault injection: named failpoints at every I/O site.

    Instrumented layers register a {!site} ("wal.append",
    "wal.force", ...) and call {!hit} where the real I/O
    happens.  Tests and the torture harness {!arm} a site with a
    {!policy}; production leaves every site [Off], which costs one
    load and one branch per hit.  Randomized triggers draw from the
    repository's SplitMix64 RNG, so fault schedules are reproducible
    from a seed. *)

exception Crash of string
(** Simulated power loss at the named site.  Never caught below the
    torture harness, which discards all volatile state and re-opens
    from disk. *)

exception Injected of string
(** Simulated I/O failure at the named site. *)

exception Storage_error of string * exn
(** A storage-layer primitive failed: the site name and the underlying
    cause ({!Injected} or a real [Unix.Unix_error]/[Sys_error]). *)

type policy =
  | Off
  | Fail_once
  | Fail_nth of int  (** fail the nth hit from now (1-based), then disarm *)
  | Fail_prob of float * Asset_util.Rng.t
  | Crash_once
  | Crash_nth of int
  | Crash_prob of float * Asset_util.Rng.t
  | Disk_full of int
      (** [ENOSPC] model: a remaining byte budget.  Size-aware hits
          ({!hit_bytes}, {!hit_io_bytes}) consume the budget and pass
          while it covers the write; once exhausted, every further
          write fails — and the policy stays armed, because a full
          disk stays full.  Sizeless hits are zero-byte probes: they
          fail only after exhaustion. *)
  | Arm_at of int * site * policy
      (** On the nth hit from now (1-based), arm the other site with
          the policy, then disarm; every hit passes.  Lands a fault on
          the I/O that follows a particular event, e.g. the write of
          the n-th checkpoint's frame. *)

and site

val register : string -> site
(** Find-or-create: idempotent, so an instrumented module can register
    its sites at initialisation and tests can re-register by name. *)

val find : string -> site option
val sites : unit -> site list

val arm : site -> policy -> unit
val arm_name : string -> policy -> bool
(** False when no such site is registered. *)

val off : site -> unit

val reset : site -> unit
(** Disarm and zero the counters. *)

val reset_all : unit -> unit
(** Reset every registered site — the torture harness calls this at
    each simulated power-off so a recovery never re-fires a fault. *)

val hits : site -> int
val fired : site -> int

val check : site -> [ `Fail | `Crash ] option
(** Evaluate one hit without raising — for sites with custom fault
    semantics (e.g. torn writes, which write half the bytes before
    crashing).  One-shot triggers disarm themselves. *)

val check_bytes : site -> int -> [ `Fail | `Crash ] option
(** {!check} for a hit that wants to consume [bytes] of disk — the
    size-aware evaluation a {!policy.Disk_full} budget needs.  Other
    policies ignore the size. *)

val hit : site -> unit
(** Evaluate one hit; raises {!Injected} or {!Crash} when the policy
    fires. *)

val hit_bytes : site -> int -> unit
(** {!hit} with a byte size, for {!policy.Disk_full} sites. *)

val hit_io : site -> unit
(** {!hit}, with {!Injected} wrapped into {!Storage_error}. *)

val hit_io_bytes : site -> int -> unit
(** {!hit_bytes}, with {!Injected} wrapped into {!Storage_error}. *)

val protect : string -> (unit -> 'a) -> 'a
(** Run an I/O action under the typed-error discipline: {!Injected}
    and real [Unix_error]/[Sys_error] surface as {!Storage_error};
    {!Crash} and nested [Storage_error]s pass through. *)

val io : site -> (unit -> 'a) -> 'a
(** [protect site.name (fun () -> hit site; f ())]. *)

val pp_site : Format.formatter -> site -> unit
