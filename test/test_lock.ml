(* Tests for the section-4 lock manager: modes, the read-lock /
   write-lock algorithm, permits (direct, open, transitive), permit-
   driven suspension, delegation and the Figure-1 object descriptor. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Mode = Asset_lock.Mode
module Ops = Asset_lock.Mode.Ops
module Lm = Asset_lock.Lock_manager

let tid = Tid.of_int
let oid = Oid.of_int

let check_acquired msg outcome =
  match outcome with
  | Lm.Acquired -> ()
  | Lm.Blocked_on blockers ->
      Alcotest.failf "%s: blocked on %s" msg
        (String.concat "," (List.map (fun t -> string_of_int (Tid.to_int t)) blockers))

let check_blocked msg expected outcome =
  match outcome with
  | Lm.Acquired -> Alcotest.failf "%s: unexpectedly acquired" msg
  | Lm.Blocked_on blockers ->
      Alcotest.(check (list int)) msg expected (List.map Tid.to_int blockers)

(* ------------------------------------------------------------------ *)
(* Mode                                                                *)

let all_modes = Mode.[ Read; Write; Increment; Escrow; Enqueue; Snapshot ]

(* The full 6x6 lock-table compatibility matrix, pinned entry by entry:
   a self-compatible diagonal for the commuting modes (R, I, E, Q),
   Snapshot compatible with everything, and every other pair
   conflicting — in particular Escrow vs Increment, because an
   unbounded increment invalidates escrow's bound analysis. *)
let test_conflict_matrix () =
  let compatible a b =
    match (a, b) with
    | Mode.Snapshot, _ | _, Mode.Snapshot -> true
    | Mode.Read, Mode.Read -> true
    | Mode.Increment, Mode.Increment -> true
    | Mode.Escrow, Mode.Escrow -> true
    | Mode.Enqueue, Mode.Enqueue -> true
    | _ -> false
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Format.asprintf "%a/%a" Mode.pp a Mode.pp b)
            (not (compatible a b)) (Mode.conflicts a b);
          Alcotest.(check bool)
            (Format.asprintf "%a/%a symmetric" Mode.pp a Mode.pp b)
            (Mode.conflicts a b) (Mode.conflicts b a))
        all_modes)
    all_modes

(* The op-tag commutation relation the POR explorer prunes with, pinned
   as a full matrix.  Deliberately stricter than the lock table on
   'E'/'E' and 'Q'/'Q': escrow ops are lock-compatible but reordering
   them flips which one hits the bound, and enqueues commute on the
   item multiset but not on concrete queue order. *)
let test_conflicts_ops_matrix () =
  let tags = [ 'R'; 'W'; 'I'; 'E'; 'Q'; 'S' ] in
  let commutes a b =
    match (a, b) with 'S', _ | _, 'S' -> true | 'R', 'R' -> true | 'I', 'I' -> true | _ -> false
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          Alcotest.(check bool)
            (Printf.sprintf "ops %c/%c" a b)
            (not (commutes a b)) (Mode.conflicts_ops a b))
        tags)
    tags;
  (* The divergence from the lock table, stated explicitly. *)
  Alcotest.(check bool) "E/E lock-compatible" false Mode.(conflicts Escrow Escrow);
  Alcotest.(check bool) "E/E schedule-conflicting" true (Mode.conflicts_ops 'E' 'E');
  Alcotest.(check bool) "Q/Q lock-compatible" false Mode.(conflicts Enqueue Enqueue);
  Alcotest.(check bool) "Q/Q schedule-conflicting" true (Mode.conflicts_ops 'Q' 'Q');
  (* Unknown tags conservatively conflict with everything. *)
  Alcotest.(check bool) "unknown tag conflicts" true (Mode.conflicts_ops '?' 'R');
  Alcotest.(check bool) "unknown tag conflicts sym" true (Mode.conflicts_ops 'R' '?');
  (* Tag decoding covers exactly the six modes, in tag order. *)
  List.iter2
    (fun c m ->
      match Mode.of_op_char c with
      | Some m' -> Alcotest.(check bool) (Printf.sprintf "of_op_char %c" c) true (Mode.equal m m')
      | None -> Alcotest.failf "of_op_char %c: no mode" c)
    tags all_modes;
  Alcotest.(check bool) "of_op_char rejects junk" true (Mode.of_op_char 'X' = None)

let test_covers () =
  let expected ~held ~requested =
    match (held, requested) with
    | _, Mode.Snapshot -> true (* any holder may also snapshot-read *)
    | Mode.Write, _ -> true
    | a, b -> Mode.equal a b
  in
  List.iter
    (fun h ->
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (Format.asprintf "%a covers %a" Mode.pp h Mode.pp r)
            (expected ~held:h ~requested:r)
            (Mode.covers ~held:h ~requested:r))
        all_modes)
    all_modes

(* Mode.join, pinned as a full matrix plus its algebraic laws: it must
   cover both operands (the holder keeps every right it had) and
   preserve both operands' conflicts (no third party compatible with
   the join that conflicted with either operand). *)
let test_join () =
  let expected a b =
    if Mode.equal a b then a
    else
      match (a, b) with Mode.Snapshot, m | m, Mode.Snapshot -> m | _ -> Mode.Write
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          let j = Mode.join a b in
          Alcotest.(check bool)
            (Format.asprintf "join %a %a" Mode.pp a Mode.pp b)
            true
            (Mode.equal (expected a b) j);
          Alcotest.(check bool)
            (Format.asprintf "join %a %a commutative" Mode.pp a Mode.pp b)
            true
            (Mode.equal j (Mode.join b a));
          Alcotest.(check bool)
            (Format.asprintf "join %a %a covers left" Mode.pp a Mode.pp b)
            true
            (Mode.covers ~held:j ~requested:a);
          Alcotest.(check bool)
            (Format.asprintf "join %a %a covers right" Mode.pp a Mode.pp b)
            true
            (Mode.covers ~held:j ~requested:b);
          (* Conflict preservation: anything conflicting with an operand
             conflicts with the join. *)
          List.iter
            (fun c ->
              if Mode.conflicts a c || Mode.conflicts b c then
                Alcotest.(check bool)
                  (Format.asprintf "join %a %a keeps conflict with %a" Mode.pp a Mode.pp b Mode.pp
                     c)
                  true (Mode.conflicts j c))
            all_modes)
        all_modes)
    all_modes

let test_ops_algebra () =
  Alcotest.(check bool) "read in all" true (Ops.mem Mode.Read Ops.all);
  Alcotest.(check bool) "write not in read_only" false (Ops.mem Mode.Write Ops.read_only);
  Alcotest.(check bool) "inter" true (Ops.equal Ops.read_only (Ops.inter Ops.all Ops.read_only));
  Alcotest.(check bool) "empty inter" true (Ops.is_empty (Ops.inter Ops.read_only Ops.write_only));
  Alcotest.(check bool) "of_list" true
    (Ops.equal Ops.all
       (Ops.of_list [ Mode.Read; Mode.Write; Mode.Increment; Mode.Escrow; Mode.Enqueue ]));
  (* A snapshot read is a read for permit purposes. *)
  Alcotest.(check bool) "snapshot is a read" true (Ops.mem Mode.Snapshot Ops.read_only);
  Alcotest.(check bool) "escrow in all" true (Ops.mem Mode.Escrow Ops.all);
  Alcotest.(check bool) "enqueue in all" true (Ops.mem Mode.Enqueue Ops.all)

(* ------------------------------------------------------------------ *)
(* Basic acquisition                                                   *)

let test_shared_readers () =
  let lm = Lm.create () in
  check_acquired "t1 R" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  check_acquired "t2 R" (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  check_acquired "t3 R" (Lm.acquire lm (tid 3) (oid 1) Mode.Read)

let test_writer_excludes () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 R blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  check_blocked "t3 W blocked" [ 1 ] (Lm.acquire lm (tid 3) (oid 1) Mode.Write)

let test_reacquire_covered () =
  let lm = Lm.create () in
  check_acquired "W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "R under own W" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  Alcotest.(check int) "one LRD" 1 (Lm.lock_count lm (tid 1))

let test_upgrade () =
  let lm = Lm.create () in
  check_acquired "R" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  check_acquired "upgrade alone" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  match Lm.holds lm (tid 1) (oid 1) with
  | Some (Mode.Write, Lm.Granted) -> ()
  | _ -> Alcotest.fail "expected upgraded W granted"

let test_upgrade_blocked_by_other_reader () =
  let lm = Lm.create () in
  check_acquired "t1 R" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  check_acquired "t2 R" (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  check_blocked "t1 upgrade blocked" [ 2 ] (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  (* The pending entry is an upgrade request. *)
  match Lm.pending_of lm (oid 1) with
  | [ (t, m, s) ] ->
      Alcotest.(check int) "upgrader" 1 (Tid.to_int t);
      Alcotest.(check bool) "mode W" true (Mode.equal m Mode.Write);
      Alcotest.(check string) "status" "upgrading" (Format.asprintf "%a" Lm.pp_status s)
  | l -> Alcotest.failf "expected one pending, got %d" (List.length l)

(* Regression: an upgrade must *join* the held and requested modes, not
   replace one with the other.  Holding Increment and then acquiring
   Read used to record plain Read, so a second transaction's R/R-
   compatible read was granted while the first holder's uncommitted
   increment delta was still live — a dirty read (conformance oracle
   seed 10748338).  The joined mode is Write, which blocks the second
   reader until the increment holder releases. *)
let test_upgrade_joins_modes () =
  let lm = Lm.create () in
  check_acquired "t1 I" (Lm.acquire lm (tid 1) (oid 1) Mode.Increment);
  check_acquired "t1 R under own I" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  (match Lm.holds lm (tid 1) (oid 1) with
  | Some (Mode.Write, Lm.Granted) -> ()
  | Some (m, _) -> Alcotest.failf "expected joined W, held %a" Mode.pp m
  | None -> Alcotest.fail "t1 holds nothing");
  check_blocked "t2 R blocked by live increment" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  check_blocked "t3 I blocked too" [ 1 ] (Lm.acquire lm (tid 3) (oid 1) Mode.Increment);
  Lm.cancel_pending_all lm (tid 3);
  let (_ : Oid.t list) = Lm.release_all lm (tid 1) in
  check_acquired "t2 R after release" (Lm.acquire lm (tid 2) (oid 1) Mode.Read)

let test_release_unblocks () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  let released = Lm.release_all lm (tid 1) in
  Alcotest.(check (list int)) "released oids" [ 1 ] (List.map Oid.to_int released);
  check_acquired "t2 after release" (Lm.acquire lm (tid 2) (oid 1) Mode.Write)

let test_cancel_pending () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  Lm.cancel_pending_all lm (tid 2);
  Alcotest.(check int) "no pending" 0 (List.length (Lm.pending_of lm (oid 1)))

(* ------------------------------------------------------------------ *)
(* Permits                                                             *)

let test_permit_excuses_conflict () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  check_acquired "t2 W permitted" (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  (* t1's granted lock is suspended, not gone. *)
  (match Lm.holds lm (tid 1) (oid 1) with
  | Some (Mode.Write, Lm.Suspended) -> ()
  | _ -> Alcotest.fail "expected t1's lock suspended");
  match Lm.holds lm (tid 2) (oid 1) with
  | Some (Mode.Write, Lm.Granted) -> ()
  | _ -> Alcotest.fail "expected t2 granted"

let test_permit_op_restricted () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.read_only;
  check_acquired "t2 R permitted" (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  (* t3 is blocked by both the suspended writer t1 (no permit for t3)
     and the reader t2. *)
  check_blocked "t3 W still blocked" [ 1; 2 ] (Lm.acquire lm (tid 3) (oid 1) Mode.Write)

let test_permit_wrong_grantee_blocks () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  check_blocked "t3 not the grantee" [ 1 ] (Lm.acquire lm (tid 3) (oid 1) Mode.Write)

let test_open_permit_any_transaction () =
  (* permit(ti, ob, op): grantee null = any transaction (cursor
     stability uses this). *)
  let lm = Lm.create () in
  check_acquired "t1 R" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:None ~oid:(oid 1) ~ops:Ops.write_only;
  check_acquired "anyone may write" (Lm.acquire lm (tid 99) (oid 1) Mode.Write)

(* Rule 3: permit(t1,t2,ops) and permit(t2,t3,ops') act as
   permit(t1,t3,ops∩ops'). *)
let test_permit_transitive () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  Lm.add_permit lm ~grantor:(tid 2) ~grantee:(Some (tid 3)) ~oid:(oid 1) ~ops:Ops.all;
  check_acquired "t3 reaches t1's permission transitively"
    (Lm.acquire lm (tid 3) (oid 1) Mode.Write)

let test_permit_transitive_intersection () =
  (* read ∩ all = read: t3 may read but not write through the chain. *)
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.read_only;
  Lm.add_permit lm ~grantor:(tid 2) ~grantee:(Some (tid 3)) ~oid:(oid 1) ~ops:Ops.all;
  check_acquired "t3 R via intersection" (Lm.acquire lm (tid 3) (oid 1) Mode.Read);
  let lm2 = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm2 (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm2 ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.read_only;
  Lm.add_permit lm2 ~grantor:(tid 2) ~grantee:(Some (tid 3)) ~oid:(oid 1) ~ops:Ops.all;
  check_blocked "t3 W blocked: write not in intersection" [ 1 ]
    (Lm.acquire lm2 (tid 3) (oid 1) Mode.Write)

let test_permit_no_cycle_hang () =
  (* Mutual permits between t2 and t3 must not send the transitive
     reachability search into a loop. *)
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 2) ~grantee:(Some (tid 3)) ~oid:(oid 1) ~ops:Ops.all;
  Lm.add_permit lm ~grantor:(tid 3) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  check_blocked "no path from t1" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write)

let test_permit_empty_ops_ignored () =
  let lm = Lm.create () in
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.none;
  Alcotest.(check int) "no PD created" 0 (List.length (Lm.permits_of lm (oid 1)))

let test_suspended_lock_resumes_on_release () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  check_acquired "t2 W" (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  (* t2 releases: t1's suspended lock resumes. *)
  ignore (Lm.release_all lm (tid 2));
  match Lm.holds lm (tid 1) (oid 1) with
  | Some (Mode.Write, Lm.Granted) -> ()
  | _ -> Alcotest.fail "expected t1 resumed"

(* The ping-pong of section 3.2.1: with mutual permits, the lock
   bounces between the cooperating transactions. *)
let test_permit_ping_pong () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  Lm.add_permit lm ~grantor:(tid 2) ~grantee:(Some (tid 1)) ~oid:(oid 1) ~ops:Ops.all;
  check_acquired "t2 takes over" (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  check_acquired "t1 takes it back" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "t2 again" (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  (* Exactly one side is granted at any time: atomicity of elementary
     operations is preserved (semantics point 2). *)
  let granted =
    List.filter (fun (_, _, s) -> s = Lm.Granted) (Lm.granted_of lm (oid 1))
  in
  Alcotest.(check int) "single granted holder" 1 (List.length granted)

let test_remove_permits () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  Lm.remove_permits lm (tid 1);
  Alcotest.(check int) "permits gone" 0 (List.length (Lm.permits_of lm (oid 1)));
  check_blocked "t2 blocked again" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write)

let test_accessible_objects () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "t1 R ob2" (Lm.acquire lm (tid 1) (oid 2) Mode.Read);
  Lm.add_permit lm ~grantor:(tid 9) ~grantee:(Some (tid 1)) ~oid:(oid 3) ~ops:Ops.all;
  Alcotest.(check (list int)) "locked + permitted" [ 1; 2; 3 ]
    (List.map Oid.to_int (Lm.accessible_objects lm (tid 1)))

(* ------------------------------------------------------------------ *)
(* Delegation                                                          *)

let test_delegate_moves_locks () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "t1 W ob2" (Lm.acquire lm (tid 1) (oid 2) Mode.Write);
  let moved = Lm.delegate lm ~from_:(tid 1) ~to_:(tid 2) (Some [ oid 1 ]) in
  Alcotest.(check (list int)) "moved" [ 1 ] (List.map Oid.to_int moved);
  Alcotest.(check bool) "t2 holds ob1" true (Lm.holds lm (tid 2) (oid 1) <> None);
  Alcotest.(check bool) "t1 no longer holds ob1" true (Lm.holds lm (tid 1) (oid 1) = None);
  Alcotest.(check bool) "t1 keeps ob2" true (Lm.holds lm (tid 1) (oid 2) <> None)

let test_delegate_all () =
  let lm = Lm.create () in
  check_acquired "ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "ob2" (Lm.acquire lm (tid 1) (oid 2) Mode.Read);
  ignore (Lm.delegate lm ~from_:(tid 1) ~to_:(tid 2) None);
  Alcotest.(check int) "t1 empty" 0 (Lm.lock_count lm (tid 1));
  Alcotest.(check int) "t2 has both" 2 (Lm.lock_count lm (tid 2))

let test_delegate_merges_modes () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  check_acquired "t2 R (permitted)" (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  ignore (Lm.delegate lm ~from_:(tid 1) ~to_:(tid 2) None);
  (match Lm.holds lm (tid 2) (oid 1) with
  | Some (Mode.Write, _) -> ()
  | _ -> Alcotest.fail "expected merged W lock");
  Alcotest.(check int) "one LRD after merge" 1 (Lm.lock_count lm (tid 2))

(* "A subsequent operation on ob performed by t_i can conflict with an
   operation previously performed by t_i" (section 2.2): after
   delegating, the delegator competes like a stranger. *)
let test_delegator_conflicts_with_own_past_ops () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  ignore (Lm.delegate lm ~from_:(tid 1) ~to_:(tid 2) None);
  check_blocked "t1 now blocked by t2" [ 2 ] (Lm.acquire lm (tid 1) (oid 1) Mode.Write)

let test_delegate_rewrites_permit_grantor () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 3)) ~oid:(oid 1) ~ops:Ops.all;
  ignore (Lm.delegate lm ~from_:(tid 1) ~to_:(tid 2) None);
  (* The PD (t1,t3,op) must have become (t2,t3,op): t3 is still
     permitted against the new holder t2. *)
  check_acquired "t3 permitted against t2" (Lm.acquire lm (tid 3) (oid 1) Mode.Write);
  match Lm.permits_of lm (oid 1) with
  | [ (grantor, Some grantee, _) ] ->
      Alcotest.(check int) "grantor rewritten" 2 (Tid.to_int grantor);
      Alcotest.(check int) "grantee kept" 3 (Tid.to_int grantee)
  | _ -> Alcotest.fail "expected exactly one rewritten PD"

(* ------------------------------------------------------------------ *)
(* Waits-for and deadlock detection                                    *)

let test_waits_for_edges () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  let edges = Lm.waits_for lm in
  Alcotest.(check (list (pair int int))) "edge t2->t1" [ (2, 1) ]
    (List.map (fun (a, b) -> (Tid.to_int a, Tid.to_int b)) edges)

let test_find_cycle () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "t2 W ob2" (Lm.acquire lm (tid 2) (oid 2) Mode.Write);
  check_blocked "t1 wants ob2" [ 2 ] (Lm.acquire lm (tid 1) (oid 2) Mode.Write);
  check_blocked "t2 wants ob1" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  match Lm.find_cycle lm with
  | Some cycle ->
      Alcotest.(check (list int)) "both in cycle" [ 1; 2 ]
        (List.sort Int.compare (List.map Tid.to_int cycle))
  | None -> Alcotest.fail "expected a deadlock cycle"

let test_no_false_cycle () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 waits" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  Alcotest.(check bool) "no cycle in a chain" true (Lm.find_cycle lm = None)

let test_permit_removes_waits_for_edge () =
  let lm = Lm.create () in
  check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 waits" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  Alcotest.(check int) "edge excused by permit" 0 (List.length (Lm.waits_for lm))

(* ------------------------------------------------------------------ *)
(* Figure 1                                                            *)

let test_fig1_od_structure () =
  (* Reproduce the Figure-1 object descriptor: an object with granted
     locks, a pending request and a permission, rendered with its three
     lists. *)
  let lm = Lm.create () in
  check_acquired "t1 R" (Lm.acquire lm (tid 1) (oid 1) Mode.Read);
  check_acquired "t2 R" (Lm.acquire lm (tid 2) (oid 1) Mode.Read);
  check_blocked "t3 W pending" [ 1; 2 ] (Lm.acquire lm (tid 3) (oid 1) Mode.Write);
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 4)) ~oid:(oid 1) ~ops:Ops.write_only;
  Alcotest.(check int) "granted list" 2 (List.length (Lm.granted_of lm (oid 1)));
  Alcotest.(check int) "pending list" 1 (List.length (Lm.pending_of lm (oid 1)));
  Alcotest.(check int) "permit list" 1 (List.length (Lm.permits_of lm (oid 1)));
  let rendering = Format.asprintf "%a" (Lm.pp_od lm) (oid 1) in
  let contains fragment =
    let n = String.length fragment in
    let rec scan i =
      i + n <= String.length rendering && (String.sub rendering i n = fragment || scan (i + 1))
    in
    scan 0
  in
  List.iter
    (fun fragment ->
      Alcotest.(check bool) (fragment ^ " in rendering") true (contains fragment))
    [ "granted:"; "pending:"; "permits:"; "(t3,W,pending)"; "(t1,t4,W)" ]

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)

(* Invariant: without permits, no two transactions simultaneously hold
   granted conflicting locks on the same object. *)
let prop_no_conflicting_grants =
  QCheck2.Test.make ~name:"no conflicting grants without permits" ~count:300
    QCheck2.Gen.(list_size (int_range 1 40) (tup3 (int_range 1 5) (int_range 1 4) bool))
    (fun ops ->
      let lm = Lm.create () in
      List.iter
        (fun (t, o, write) ->
          ignore (Lm.acquire lm (tid t) (oid o) (if write then Mode.Write else Mode.Read)))
        ops;
      List.for_all
        (fun o ->
          let granted =
            List.filter (fun (_, _, s) -> s = Lm.Granted) (Lm.granted_of lm (oid o))
          in
          List.for_all
            (fun (t1, m1, _) ->
              List.for_all
                (fun (t2, m2, _) -> Tid.equal t1 t2 || not (Mode.conflicts m1 m2))
                granted)
            granted)
        (List.init 4 (fun i -> i + 1)))

(* Invariant: release_all + cancel_pending_all leave no residue. *)
let prop_release_all_clears =
  QCheck2.Test.make ~name:"release_all leaves no residue" ~count:300
    QCheck2.Gen.(list_size (int_range 1 30) (tup2 (int_range 1 4) (int_range 1 4)))
    (fun ops ->
      let lm = Lm.create () in
      List.iter (fun (t, o) -> ignore (Lm.acquire lm (tid t) (oid o) Mode.Write)) ops;
      ignore (Lm.release_all lm (tid 1));
      Lm.cancel_pending_all lm (tid 1);
      Lm.lock_count lm (tid 1) = 0
      && List.for_all
           (fun o ->
             List.for_all (fun (t, _, _) -> not (Tid.equal t (tid 1))) (Lm.granted_of lm (oid o))
             && List.for_all (fun (t, _, _) -> not (Tid.equal t (tid 1))) (Lm.pending_of lm (oid o)))
           (List.init 4 (fun i -> i + 1)))

(* Invariant: delegation conserves the total number of live LRDs per
   object (merges may reduce, never increase). *)
let prop_delegate_conserves_locks =
  QCheck2.Test.make ~name:"delegation never duplicates LRDs" ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 20) (tup2 (int_range 1 4) (int_range 1 4)))
        (list_size (int_range 1 6) (tup2 (int_range 1 4) (int_range 1 4))))
    (fun (acquires, delegations) ->
      let lm = Lm.create () in
      List.iter (fun (t, o) -> ignore (Lm.acquire lm (tid t) (oid o) Mode.Write)) acquires;
      let before =
        List.init 4 (fun i -> List.length (Lm.granted_of lm (oid (i + 1))))
        |> List.fold_left ( + ) 0
      in
      List.iter
        (fun (a, b) -> if a <> b then ignore (Lm.delegate lm ~from_:(tid a) ~to_:(tid b) None))
        delegations;
      let after =
        List.init 4 (fun i -> List.length (Lm.granted_of lm (oid (i + 1))))
        |> List.fold_left ( + ) 0
      in
      after <= before)

(* ------------------------------------------------------------------ *)
(* The derived waits-for graph across lock-state changes               *)

let edges lm =
  Lm.waits_for lm
  |> List.map (fun (a, b) -> (Tid.to_int a, Tid.to_int b))
  |> List.sort_uniq compare

let check_edges msg expected lm = Alcotest.(check (list (pair int int))) msg expected (edges lm)

let test_pending_index_cancel_all () =
  let lm = Lm.create () in
  (* t1 holds three objects; t2 and t3 queue up behind it on each. *)
  List.iter (fun o -> check_acquired "t1 W" (Lm.acquire lm (tid 1) (oid o) Mode.Write)) [ 1; 2; 3 ];
  List.iter
    (fun o -> check_blocked "t2 blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid o) Mode.Write))
    [ 1; 2; 3 ];
  check_blocked "t3 blocked" [ 1 ] (Lm.acquire lm (tid 3) (oid 2) Mode.Write);
  check_edges "t2's three requests give one edge, t3's another" [ (2, 1); (3, 1) ] lm;
  Lm.cancel_pending_all lm (tid 2);
  (* All of t2's pending requests are gone; t3's is untouched. *)
  List.iter
    (fun o ->
      Alcotest.(check bool)
        (Printf.sprintf "no t2 pending on ob%d" o)
        false
        (List.exists (fun (t, _, _) -> Tid.to_int t = 2) (Lm.pending_of lm (oid o))))
    [ 1; 2; 3 ];
  check_edges "only t3 edge survives" [ (3, 1) ] lm;
  (* Idempotent on a transaction with nothing pending. *)
  Lm.cancel_pending_all lm (tid 2);
  check_edges "after re-cancel" [ (3, 1) ] lm;
  Alcotest.(check bool) "t3 still pending" true (Lm.has_pending lm)

let test_edges_lifecycle () =
  let lm = Lm.create () in
  check_edges "empty graph" [] lm;
  Alcotest.(check bool) "nothing pending" false (Lm.has_pending lm);
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_edges "grant adds no edge" [] lm;
  check_blocked "t2 blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  check_edges "block adds edge" [ (2, 1) ] lm;
  Alcotest.(check bool) "t2 pending" true (Lm.has_pending lm);
  (* Release grants the way: t2's retry acquires and the edge dies. *)
  ignore (Lm.release_all lm (tid 1));
  check_edges "release leaves no holder to wait for" [] lm;
  check_acquired "t2 retry acquires" (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  check_edges "edge removed on grant" [] lm;
  Alcotest.(check bool) "grant clears pending" false (Lm.has_pending lm);
  (* Abort path: a blocked waiter is torn down with the engine's
     finalize-abort sequence (cancel pending, release, drop permits). *)
  check_blocked "t3 blocked" [ 2 ] (Lm.acquire lm (tid 3) (oid 1) Mode.Write);
  check_edges "edge re-added" [ (3, 2) ] lm;
  ignore (Lm.release_all lm (tid 3));
  Lm.cancel_pending_all lm (tid 3);
  Lm.remove_permits lm (tid 3);
  check_edges "abort clears waiter's edges" [] lm;
  Alcotest.(check bool) "abort clears pending" false (Lm.has_pending lm)

let test_delegate_cancels_pending () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_acquired "t2 W ob2" (Lm.acquire lm (tid 2) (oid 2) Mode.Write);
  check_blocked "t2 blocked on ob1" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  check_edges "edge t2->t1" [ (2, 1) ] lm;
  (* t2 delegates everything to t3: its granted lock on ob2 moves, and
     its in-flight request on ob1 is withdrawn with its edge. *)
  let moved = Lm.delegate lm ~from_:(tid 2) ~to_:(tid 3) None in
  Alcotest.(check (list int)) "ob2 moved" [ 2 ] (List.map Oid.to_int moved);
  check_edges "no stale t2 edge" [] lm;
  Alcotest.(check bool) "no orphaned pending on ob1" true (Lm.pending_of lm (oid 1) = []);
  (* The withdrawn request can simply be re-registered by its owner. *)
  check_blocked "t2 re-blocks" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  check_edges "after re-register" [ (2, 1) ] lm

let test_delegate_repoints_waiter_edges () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t9 blocked on t1" [ 1 ] (Lm.acquire lm (tid 9) (oid 1) Mode.Write);
  check_edges "edge t9->t1" [ (9, 1) ] lm;
  (* t1 hands its lock to t5: the waiter's edge must follow the lock. *)
  ignore (Lm.delegate lm ~from_:(tid 1) ~to_:(tid 5) None);
  check_edges "edge repointed to t5" [ (9, 5) ] lm

let test_transitive_permit_chain_excuses_edge () =
  let lm = Lm.create () in
  check_acquired "t1 W ob1" (Lm.acquire lm (tid 1) (oid 1) Mode.Write);
  check_blocked "t2 blocked" [ 1 ] (Lm.acquire lm (tid 2) (oid 1) Mode.Write);
  check_edges "edge live" [ (2, 1) ] lm;
  (* A permit chain t1 -> t3 -> t2: only once the second link lands is
     t2's conflict transitively excused (permit rule 3), and the
     graph must drop the edge at exactly that point. *)
  Lm.add_permit lm ~grantor:(tid 1) ~grantee:(Some (tid 3)) ~oid:(oid 1) ~ops:Ops.all;
  check_edges "half a chain excuses nothing" [ (2, 1) ] lm;
  Lm.add_permit lm ~grantor:(tid 3) ~grantee:(Some (tid 2)) ~oid:(oid 1) ~ops:Ops.all;
  check_edges "full chain excuses the edge" [] lm;
  (* Withdrawing the middle transaction's permits re-blocks t2. *)
  Lm.remove_permits lm (tid 3);
  check_edges "edge returns" [ (2, 1) ] lm

(* Overlapping upgrade cycles: three readers of one object all upgrade
   to Write, so each waits for the other two.  The cycle reported must
   depend only on that state, not on the order the requests arrived
   in.  Tids 29, 126 and 146 share a bucket of a 64-bucket [Hashtbl],
   so a search that followed hash-table order would meet them in
   arrival order. *)
let test_victim_independent_of_order () =
  let cycle_after order =
    let lm = Lm.create () in
    List.iter (fun t -> check_acquired "read" (Lm.acquire lm (tid t) (oid 1) Mode.Read)) order;
    List.iter (fun t -> ignore (Lm.acquire lm (tid t) (oid 1) Mode.Write)) order;
    match Lm.find_cycle lm with
    | Some cycle -> List.map Tid.to_int cycle
    | None -> Alcotest.fail "expected an upgrade deadlock"
  in
  let orders = [ [ 29; 126; 146 ]; [ 146; 29; 126 ]; [ 126; 146; 29 ]; [ 146; 126; 29 ] ] in
  let expected = cycle_after (List.hd orders) in
  Alcotest.(check int) "a two-transaction cycle" 2 (List.length expected);
  List.iter
    (fun order ->
      Alcotest.(check (list int))
        (Printf.sprintf "same cycle for order %s" (String.concat "," (List.map string_of_int order)))
        expected (cycle_after order))
    (List.tl orders)

(* Randomized schedules: after every operation [waits_for] must equal
   the reference graph built from the Figure-1 lists, and [find_cycle]
   must agree with it on whether a deadlock exists, reporting only
   cycles made of reference edges. *)
let prop_find_cycle_agrees_with_reference =
  let open QCheck2 in
  let op_gen =
    Gen.(
      frequency
        [
          (6, map2 (fun t o -> `Acquire (t, o, Mode.Write)) (int_range 1 5) (int_range 1 4));
          (3, map2 (fun t o -> `Acquire (t, o, Mode.Read)) (int_range 1 5) (int_range 1 4));
          (2, map (fun t -> `Release t) (int_range 1 5));
          (2, map (fun t -> `CancelAll t) (int_range 1 5));
          (2, map3 (fun a b o -> `Permit (a, b, o)) (int_range 1 5) (int_range 1 5) (int_range 1 4));
          (1, map (fun t -> `RemovePermits t) (int_range 1 5));
          (1, map2 (fun a b -> `Delegate (a, b)) (int_range 1 5) (int_range 1 5));
        ])
  in
  let oids = List.init 4 (fun i -> oid (i + 1)) in
  Test.make ~name:"find_cycle agrees with a reference" ~count:200
    Gen.(list_size (int_range 5 60) op_gen)
    (fun ops ->
      let lm = Lm.create () in
      List.for_all
        (fun op ->
          (match op with
          | `Acquire (t, o, m) -> ignore (Lm.acquire lm (tid t) (oid o) m)
          | `Release t ->
              ignore (Lm.release_all lm (tid t));
              Lm.cancel_pending_all lm (tid t)
          | `CancelAll t -> Lm.cancel_pending_all lm (tid t)
          | `Permit (a, b, o) ->
              if a <> b then
                Lm.add_permit lm ~grantor:(tid a) ~grantee:(Some (tid b)) ~oid:(oid o) ~ops:Ops.all
          | `RemovePermits t -> Lm.remove_permits lm (tid t)
          | `Delegate (a, b) -> if a <> b then ignore (Lm.delegate lm ~from_:(tid a) ~to_:(tid b) None));
          Lm.waits_for lm = Waits_reference.edges lm oids
          && Waits_reference.find_cycle_agrees lm oids)
        ops)

let () =
  Alcotest.run "asset_lock"
    [
      ( "mode",
        [
          Alcotest.test_case "conflict matrix" `Quick test_conflict_matrix;
          Alcotest.test_case "conflicts_ops matrix" `Quick test_conflicts_ops_matrix;
          Alcotest.test_case "covers" `Quick test_covers;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "ops algebra" `Quick test_ops_algebra;
        ] );
      ( "acquire",
        [
          Alcotest.test_case "shared readers" `Quick test_shared_readers;
          Alcotest.test_case "writer excludes" `Quick test_writer_excludes;
          Alcotest.test_case "reacquire covered" `Quick test_reacquire_covered;
          Alcotest.test_case "upgrade" `Quick test_upgrade;
          Alcotest.test_case "upgrade blocked by reader" `Quick test_upgrade_blocked_by_other_reader;
          Alcotest.test_case "upgrade joins modes" `Quick test_upgrade_joins_modes;
          Alcotest.test_case "release unblocks" `Quick test_release_unblocks;
          Alcotest.test_case "cancel pending" `Quick test_cancel_pending;
        ] );
      ( "permit",
        [
          Alcotest.test_case "excuses conflict" `Quick test_permit_excuses_conflict;
          Alcotest.test_case "op restricted" `Quick test_permit_op_restricted;
          Alcotest.test_case "wrong grantee blocks" `Quick test_permit_wrong_grantee_blocks;
          Alcotest.test_case "open permit" `Quick test_open_permit_any_transaction;
          Alcotest.test_case "transitive" `Quick test_permit_transitive;
          Alcotest.test_case "transitive intersection" `Quick test_permit_transitive_intersection;
          Alcotest.test_case "permit cycle does not hang" `Quick test_permit_no_cycle_hang;
          Alcotest.test_case "empty ops ignored" `Quick test_permit_empty_ops_ignored;
          Alcotest.test_case "suspension resumes" `Quick test_suspended_lock_resumes_on_release;
          Alcotest.test_case "ping-pong" `Quick test_permit_ping_pong;
          Alcotest.test_case "remove permits" `Quick test_remove_permits;
          Alcotest.test_case "accessible objects" `Quick test_accessible_objects;
        ] );
      ( "delegate",
        [
          Alcotest.test_case "moves locks" `Quick test_delegate_moves_locks;
          Alcotest.test_case "delegate all" `Quick test_delegate_all;
          Alcotest.test_case "merges modes" `Quick test_delegate_merges_modes;
          Alcotest.test_case "delegator conflicts with own past ops" `Quick
            test_delegator_conflicts_with_own_past_ops;
          Alcotest.test_case "rewrites permit grantor" `Quick test_delegate_rewrites_permit_grantor;
        ] );
      ( "waits_for",
        [
          Alcotest.test_case "edges" `Quick test_waits_for_edges;
          Alcotest.test_case "find cycle" `Quick test_find_cycle;
          Alcotest.test_case "no false cycle" `Quick test_no_false_cycle;
          Alcotest.test_case "permit removes edge" `Quick test_permit_removes_waits_for_edge;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "pending index cancel all" `Quick test_pending_index_cancel_all;
          Alcotest.test_case "edge lifecycle" `Quick test_edges_lifecycle;
          Alcotest.test_case "delegate cancels pending" `Quick test_delegate_cancels_pending;
          Alcotest.test_case "delegate repoints edges" `Quick test_delegate_repoints_waiter_edges;
          Alcotest.test_case "transitive chain excuses edge" `Quick
            test_transitive_permit_chain_excuses_edge;
          Alcotest.test_case "cycle independent of request order" `Quick
            test_victim_independent_of_order;
        ] );
      ( "fig1",
        [ Alcotest.test_case "object descriptor structure" `Quick test_fig1_od_structure ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_no_conflicting_grants;
          QCheck_alcotest.to_alcotest prop_release_all_clears;
          QCheck_alcotest.to_alcotest prop_delegate_conserves_locks;
          QCheck_alcotest.to_alcotest prop_find_cycle_agrees_with_reference;
        ] );
    ]
