(* Write-ahead-log records.

   The paper's write algorithm (section 4.2) logs the before image and
   the after image of every update; commit places a commit record; abort
   installs before images from the log.  Two ASSET-specific twists show
   up here:

   - [Commit] carries a *list* of tids because a resolved group-commit
     dependency commits a whole set of transactions atomically ("the
     steps below are simultaneously executed for all the transactions in
     the group").

   - [Delegate] records responsibility transfers.  Recovery must know
     who finally became responsible for each logged update: an update
     performed by t_i but delegated to t_j is a winner update iff t_j
     committed.  Without logging delegation, recovery could not decide
     this. *)

module Tid = Asset_util.Id.Tid
module Oid = Asset_util.Id.Oid
module Value = Asset_storage.Value

(* Fuzzy-checkpoint capture.  [Begin_ckpt] snapshots the active
   transaction table (ATT) without quiescing: for each live transaction,
   the undo information of every update it is currently responsible for
   — enough for recovery to roll an in-flight loser back without ever
   scanning the log before the checkpoint.  The captured LSNs are the
   updates' real log positions, so undo ordering across seeded and
   tail records stays globally correct.  [End_ckpt] anchors
   completeness: analysis only trusts a Begin_ckpt whose matching
   End_ckpt (the [begin_lsn] backlink) made it to disk. *)

type ckpt_undo =
  | Ckpt_physical of Value.t option (* install the before image; None = delete *)
  | Ckpt_delta of int (* logical undo: subtract the delta *)
  | Ckpt_dequeue of string (* logical undo: remove the enqueued item *)

type ckpt_update = { cu_lsn : int; cu_oid : Oid.t; cu_undo : ckpt_undo }
type att_entry = { att_tid : Tid.t; att_updates : ckpt_update list }

type t =
  | Begin of Tid.t
  | Update of { tid : Tid.t; oid : Oid.t; before : Value.t option; after : Value.t }
  | Commit of Tid.t list
  | Abort of Tid.t
  | Delegate of { from_ : Tid.t; to_ : Tid.t; oids : Oid.t list option }
      (* [oids = None] delegates everything t_i is responsible for. *)
  | Increment of { tid : Tid.t; oid : Oid.t; delta : int; after : Value.t }
      (* A commuting increment (section-5 semantic concurrency).  The
         [after] image supports physical repeat-history redo; [delta]
         supports *logical* undo — concurrent uncommitted increments by
         other transactions must survive this one's abort, so undo
         subtracts rather than installing a before image. *)
  | Enqueue of { tid : Tid.t; oid : Oid.t; item : string; image : Value.t option }
      (* A commuting queue append, logged as the operation rather than
         the queue: [item] is both the redo (append it) and the undo
         (remove it — concurrent uncommitted enqueues by other
         transactions must survive this one's abort).  The first
         enqueue on an object after each checkpoint also carries the
         full queue it produced as [image], so every redo scan meets a
         physical install of the queue before its first append (the
         full-page-write rule applied to one object). *)
  | Clr of { tid : Tid.t; oid : Oid.t; image : Value.t option; undo_lsn : int }
      (* Compensation record: the abort algorithm installed [image]
         (None = the object is deleted) while undoing [tid].  Redo-only,
         ARIES-style: recovery replays CLRs but never undoes them, and a
         loser whose Abort record made it to the log is not re-undone —
         its CLRs already carry the undo. *)
  | Begin_ckpt of { active : att_entry list; dirty : Oid.t list }
      (* Fuzzy-checkpoint open: ATT snapshot + the distinct OIDs those
         in-flight transactions have touched.  The store is flushed
         between Begin_ckpt and End_ckpt, so everything logged before
         this record is durably in the store by End_ckpt. *)
  | End_ckpt of { begin_lsn : int }
      (* Fuzzy-checkpoint close: backlink to the matching Begin_ckpt.
         Recovery's redo watermark is the [begin_lsn] of the last
         End_ckpt-anchored checkpoint. *)

let pp ppf = function
  | Begin tid -> Format.fprintf ppf "BEGIN %a" Tid.pp tid
  | Update { tid; oid; before; after } ->
      Format.fprintf ppf "UPDATE %a %a before=%a after=%a" Tid.pp tid Oid.pp oid
        (Format.pp_print_option Value.pp)
        before Value.pp after
  | Commit tids ->
      Format.fprintf ppf "COMMIT [%a]" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",") Tid.pp) tids
  | Abort tid -> Format.fprintf ppf "ABORT %a" Tid.pp tid
  | Delegate { from_; to_; oids } ->
      Format.fprintf ppf "DELEGATE %a->%a %s" Tid.pp from_ Tid.pp to_
        (match oids with
        | None -> "all"
        | Some l -> Printf.sprintf "%d objects" (List.length l))
  | Increment { tid; oid; delta; after } ->
      Format.fprintf ppf "INCR %a %a delta=%d after=%a" Tid.pp tid Oid.pp oid delta Value.pp
        after
  | Enqueue { tid; oid; item; image } ->
      Format.fprintf ppf "ENQ %a %a item=%S image=%a" Tid.pp tid Oid.pp oid item
        (Format.pp_print_option Value.pp)
        image
  | Clr { tid; oid; image; undo_lsn } ->
      Format.fprintf ppf "CLR %a %a image=%a undo=%d" Tid.pp tid Oid.pp oid
        (Format.pp_print_option Value.pp)
        image undo_lsn
  | Begin_ckpt { active; dirty } ->
      Format.fprintf ppf "BEGIN_CKPT active=[%a] dirty=%d"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (fun ppf e -> Format.fprintf ppf "%a/%d" Tid.pp e.att_tid (List.length e.att_updates)))
        active (List.length dirty)
  | End_ckpt { begin_lsn } -> Format.fprintf ppf "END_CKPT begin=%d" begin_lsn

(* Binary codec.  Framing (record length) is the log's concern; this
   codec produces and parses the record body.  All integers are
   little-endian. *)

(* Tags 6, 9 and 10 are retired: an old log may still hold them (9
   and 10 are the earlier Enqueue and Begin_ckpt layouts, which carried
   after images), so they decode as [Corrupt] and must not be
   reused. *)
let tag = function
  | Begin _ -> 1
  | Update _ -> 2
  | Commit _ -> 3
  | Abort _ -> 4
  | Delegate _ -> 5
  | Clr _ -> 7
  | Increment _ -> 8
  | End_ckpt _ -> 11
  | Enqueue _ -> 12
  | Begin_ckpt _ -> 13

let put_int buf i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Buffer.add_bytes buf b

let put_string buf s =
  put_int buf (String.length s);
  Buffer.add_string buf s

(* An optional value: a 0/1 presence word, then the bytes. *)
let put_image buf = function
  | None -> put_int buf 0
  | Some v ->
      put_int buf 1;
      put_string buf (Value.to_string v)

let put_tid buf tid = put_int buf (Tid.to_int tid)
let put_oid buf oid = put_int buf (Oid.to_int oid)

let encode t =
  let buf = Buffer.create 64 in
  Buffer.add_char buf (Char.chr (tag t));
  (match t with
  | Begin tid -> put_tid buf tid
  | Update { tid; oid; before; after } ->
      put_tid buf tid;
      put_oid buf oid;
      put_image buf before;
      put_string buf (Value.to_string after)
  | Commit tids ->
      put_int buf (List.length tids);
      List.iter (put_tid buf) tids
  | Abort tid -> put_tid buf tid
  | Delegate { from_; to_; oids } ->
      put_tid buf from_;
      put_tid buf to_;
      (match oids with
      | None -> put_int buf (-1)
      | Some l ->
          put_int buf (List.length l);
          List.iter (put_oid buf) l)
  | Clr { tid; oid; image; undo_lsn } ->
      put_tid buf tid;
      put_oid buf oid;
      put_int buf undo_lsn;
      put_image buf image
  | Increment { tid; oid; delta; after } ->
      put_tid buf tid;
      put_oid buf oid;
      put_int buf delta;
      put_string buf (Value.to_string after)
  | Enqueue { tid; oid; item; image } ->
      put_tid buf tid;
      put_oid buf oid;
      put_string buf item;
      put_image buf image
  | Begin_ckpt { active; dirty } ->
      put_int buf (List.length active);
      List.iter
        (fun e ->
          put_tid buf e.att_tid;
          put_int buf (List.length e.att_updates);
          List.iter
            (fun cu ->
              put_int buf cu.cu_lsn;
              put_oid buf cu.cu_oid;
              (match cu.cu_undo with
              | Ckpt_physical None -> put_int buf 0
              | Ckpt_physical (Some v) ->
                  put_int buf 1;
                  put_string buf (Value.to_string v)
              | Ckpt_delta d ->
                  put_int buf 2;
                  put_int buf d
              | Ckpt_dequeue item ->
                  put_int buf 3;
                  put_string buf item))
            e.att_updates)
        active;
      put_int buf (List.length dirty);
      List.iter (put_oid buf) dirty
  | End_ckpt { begin_lsn } -> put_int buf begin_lsn);
  Buffer.contents buf

exception Corrupt of string

type cursor = { data : string; mutable pos : int }

let get_int c =
  if c.pos + 8 > String.length c.data then raise (Corrupt "truncated int");
  let i = Int64.to_int (String.get_int64_le c.data c.pos) in
  c.pos <- c.pos + 8;
  i

let get_string c =
  let len = get_int c in
  (* Compare against the remaining bytes by subtraction: [c.pos + len]
     can overflow for adversarial lengths. *)
  if len < 0 || len > String.length c.data - c.pos then raise (Corrupt "truncated string");
  let s = String.sub c.data c.pos len in
  c.pos <- c.pos + len;
  s

(* A decoded element count: each element needs at least 8 bytes, so a
   count beyond the remaining payload is corruption (this also rejects
   negative and absurdly large counts before any allocation). *)
let get_count c =
  let n = get_int c in
  if n < 0 || n > (String.length c.data - c.pos) / 8 then raise (Corrupt "bad element count");
  n

let get_image c = if get_int c = 1 then Some (Value.of_string (get_string c)) else None
let get_tid c = Tid.of_int (get_int c)
let get_oid c = Oid.of_int (get_int c)

let decode data =
  if String.length data < 1 then raise (Corrupt "empty record");
  let c = { data; pos = 1 } in
  match Char.code data.[0] with
  | 1 -> Begin (get_tid c)
  | 2 ->
      let tid = get_tid c in
      let oid = get_oid c in
      let before = get_image c in
      let after = Value.of_string (get_string c) in
      Update { tid; oid; before; after }
  | 3 ->
      let n = get_count c in
      Commit (List.init n (fun _ -> get_tid c))
  | 4 -> Abort (get_tid c)
  | 5 ->
      let from_ = get_tid c in
      let to_ = get_tid c in
      let n = get_int c in
      let oids =
        if n < 0 then None
        else if n > (String.length c.data - c.pos) / 8 then raise (Corrupt "bad oid count")
        else Some (List.init n (fun _ -> get_oid c))
      in
      Delegate { from_; to_; oids }
  | 7 ->
      let tid = get_tid c in
      let oid = get_oid c in
      let undo_lsn = get_int c in
      let image = get_image c in
      Clr { tid; oid; image; undo_lsn }
  | 8 ->
      let tid = get_tid c in
      let oid = get_oid c in
      let delta = get_int c in
      let after = Value.of_string (get_string c) in
      Increment { tid; oid; delta; after }
  | 11 -> End_ckpt { begin_lsn = get_int c }
  | 12 ->
      let tid = get_tid c in
      let oid = get_oid c in
      let item = get_string c in
      let image = get_image c in
      Enqueue { tid; oid; item; image }
  | 13 ->
      let n_active = get_count c in
      let active =
        List.init n_active (fun _ ->
            let att_tid = get_tid c in
            let n_updates = get_count c in
            let att_updates =
              List.init n_updates (fun _ ->
                  let cu_lsn = get_int c in
                  let cu_oid = get_oid c in
                  let cu_undo =
                    match get_int c with
                    | 0 -> Ckpt_physical None
                    | 1 -> Ckpt_physical (Some (Value.of_string (get_string c)))
                    | 2 -> Ckpt_delta (get_int c)
                    | 3 -> Ckpt_dequeue (get_string c)
                    | k -> raise (Corrupt (Printf.sprintf "unknown ckpt undo kind %d" k))
                  in
                  { cu_lsn; cu_oid; cu_undo })
            in
            { att_tid; att_updates })
      in
      let n_dirty = get_count c in
      let dirty = List.init n_dirty (fun _ -> get_oid c) in
      Begin_ckpt { active; dirty }
  | n -> raise (Corrupt (Printf.sprintf "unknown record tag %d" n))
