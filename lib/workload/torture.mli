(** Crash-recovery torture harness.

    Runs a deterministic bank-transfer workload over the fully
    persistent stack (slotted pages + buffer pool + segment-directory
    WAL) with a
    failpoint armed, simulates power loss when it fires (all volatile
    state discarded, files reopened, {!Asset_wal.Recovery.recover}),
    and checks the durability invariants: acknowledged commits durable,
    loser effects invisible, bank balance conserved, and (optionally)
    recovery idempotent.  In {!run_once} each transfer also enqueues
    one item onto an audit queue (the object after the last account),
    and the recovered queue must hold exactly one item per durable
    winner. *)

module Recovery = Asset_wal.Recovery
module Tid = Asset_util.Id.Tid

val site_op : Asset_fault.Fault.site
(** Application-level failpoint fired at the top of every transfer body
    — the transient-failure source for the retry workload. *)

type spec = {
  accounts : int;
  balance : int;
  n_txns : int;
  seed : int;  (** drives the transfer plan and every random choice *)
  page_size : int;
  pool_capacity : int;
  segment_bytes : int;
      (** the WAL's segment rotation size (default 1 MiB, so a default
          run writes one segment) *)
  checkpoint_log_bytes : int;
      (** > 0: the engine's commit-path fuzzy-checkpoint trigger
          (0, the default, disables it) *)
}

val default_spec : spec

type transfer = { src : int; dst : int; amount : int }

val plan : spec -> transfer array
(** The scripted transfer plan, deterministic in [spec.seed]. *)

type outcome = {
  crashed : string option;  (** failpoint site of the simulated power loss *)
  acked : bool array;  (** per transaction: [E.commit] returned true *)
  tids : Tid.t array;
  report : Recovery.report;
  recovery_s : float;
  recovery_crashes : int;
      (** power losses that fired {e during} recovery (sites armed by
          [arm_recovery]); each one is retried from a fresh load *)
  log_length : int;  (** records in the recovered log *)
  forces : int;
      (** log forces before power-off; fewer forces than acknowledged
          commits means some force covered a batch of commit records *)
  failures : string list;  (** violated durability invariants; empty = pass *)
}

val run_once :
  ?arm:(unit -> unit) -> ?arm_recovery:(unit -> unit) -> ?check_idempotent:bool -> spec -> outcome
(** One torture run: set up a clean bank in fresh temp files, call
    [arm] (e.g. [Fault.arm_name "wal.append" (Crash_nth 5)]), run the
    workload, simulate power loss if a crash fires, recover, check
    invariants, clean up.  All failpoints are reset before and at
    power-off; [arm_recovery] runs after power-off to arm faults at
    recovery-only sites ("recovery.redo") — a crash during recovery is
    retried as another full power loss (up to 3 times). *)

type sweep = {
  boundaries : int;  (** WAL records in the fault-free reference run *)
  crashes : int;  (** runs that actually lost power *)
  runs : int;
  sweep_failures : (string * string list) list;
      (** (schedule label, violated invariants) per failing run *)
  total_recovery_s : float;
}

val crash_at_every_boundary : ?check_idempotent:bool -> spec -> sweep
(** Crash at the k-th WAL append for every k in the fault-free run's
    record count — the exhaustive boundary sweep. *)

val random_crash_schedule :
  ?check_idempotent:bool -> schedule_seed:int -> spec -> string * outcome
(** One seeded schedule: site and hit count drawn from
    [schedule_seed]; the workload seed varies alongside. *)

val random_crash_schedules : ?check_idempotent:bool -> n:int -> spec -> sweep

val durability_sites : string array
(** The crash windows specific to fuzzy checkpoints ("wal.ckpt.*"),
    segment retirement ("wal.retire.*") and redo ("recovery.redo"). *)

val random_durability_schedule :
  ?check_idempotent:bool -> schedule_seed:int -> spec -> string * outcome
(** One seeded schedule over {!durability_sites}: small WAL segments
    and an aggressive checkpoint trigger, crashing at the drawn site's
    n-th hit.  Recovery-side sites are armed after
    power-off so they fire during recovery itself. *)

val random_durability_schedules : ?check_idempotent:bool -> n:int -> spec -> sweep

type sustained = {
  s_rounds : int;
  s_txns : int;
  s_checkpoints : int;  (** fuzzy checkpoints the commit path triggered *)
  s_segments_created : int;
  s_segments_retired : int;
  s_segments_live : int;
  s_failures : string list;  (** empty = log stayed bounded and consistent *)
}

val sustained_run : ?rounds:int -> spec -> sustained
(** [rounds] transfer batches against one long-lived segmented WAL with
    the commit-path checkpoint trigger on: asserts checkpoints fired,
    segments were retired, the live segment count stayed within the
    un-checkpointed window's bound, and a final crash + recovery
    preserves every acknowledged transfer.  [spec.checkpoint_log_bytes]
    defaults to 2048 when unset; pass a [spec.segment_bytes] well below
    it, or no segment seals and none can retire. *)

type retry_outcome = {
  committed : int;
  retries : int;
  gave_up : int;
  stats : (string * int) list;  (** the engine's [E.stats] after the run *)
  duration_s : float;
  conserved : bool;  (** bank total intact after close + recovery *)
}

val run_retry_workload : ?fault_rate:float -> ?max_retries:int -> spec -> retry_outcome
(** The transfer workload under a transient-failure rate
    ("workload.op" armed with a seeded probability policy) and the
    bounded-retry combinator; closes cleanly, recovers, verifies
    conservation. *)
