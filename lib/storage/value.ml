(* Object values.

   EOS stores untyped byte sequences; objects acquire structure only
   through the operations invoked on them.  We keep the same stance: a
   value is an immutable byte string, with a few codecs for the payloads
   the tests, examples and benchmarks use (integers, counters, small
   records). *)

type t = string

let of_string s = s
let to_string v = v
let length = String.length
let equal = String.equal
let empty = ""

let pp ppf v =
  if String.length v <= 32 && String.for_all (fun c -> c >= ' ' && c <= '~') v then
    Format.fprintf ppf "%S" v
  else Format.fprintf ppf "<%d bytes>" (String.length v)

(* Fixed-width integer codec, used heavily by tests (counter objects)
   and by the workload generator (account balances). *)

let of_int i =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.of_int i);
  Bytes.unsafe_to_string b

let to_int v =
  if String.length v <> 8 then invalid_arg "Value.to_int: not an 8-byte integer value";
  Int64.to_int (String.get_int64_le v 0)

let incr_int v delta = of_int (to_int v + delta)

(* Queue codec: a queue value is a sequence of length-prefixed items
   (4-byte LE length, then the bytes).  Used by the engine's [enqueue]
   operation; the empty value is the empty queue. *)

let of_queue items =
  let b = Buffer.create 64 in
  List.iter
    (fun item ->
      let hdr = Bytes.create 4 in
      Bytes.set_int32_le hdr 0 (Int32.of_int (String.length item));
      Buffer.add_bytes b hdr;
      Buffer.add_string b item)
    items;
  Buffer.contents b

let to_queue v =
  let n = String.length v in
  let rec go pos acc =
    if pos = n then List.rev acc
    else if pos + 4 > n then invalid_arg "Value.to_queue: truncated item header"
    else
      let len = Int32.to_int (String.get_int32_le v pos) in
      if len < 0 || pos + 4 + len > n then invalid_arg "Value.to_queue: truncated item"
      else go (pos + 4 + len) (String.sub v (pos + 4) len :: acc)
  in
  go 0 []

(* Append one frame in place: a single blit of the old frames, then
   the new header and item.  No decode, so an append costs one copy of
   the bytes and nothing per item already queued. *)
let queue_push v item =
  let n = String.length v and len = String.length item in
  let b = Bytes.create (n + 4 + len) in
  Bytes.blit_string v 0 b 0 n;
  Bytes.set_int32_le b n (Int32.of_int len);
  Bytes.blit_string item 0 b (n + 4) len;
  Bytes.unsafe_to_string b

(* Remove the last occurrence of [item] — the logical undo of an
   append.  A no-op when the item is absent (the enqueue never
   reached the store).  One scan over the frame headers finds the
   last matching frame; the result splices the bytes around it. *)
let queue_remove_last v item =
  let n = String.length v and len = String.length item in
  let matches pos =
    Int32.to_int (String.get_int32_le v pos) = len
    &&
    let rec eq i = i = len || (v.[pos + 4 + i] = item.[i] && eq (i + 1)) in
    eq 0
  in
  let rec last pos found =
    if pos = n then found
    else if pos + 4 > n then invalid_arg "Value.queue_remove_last: truncated item header"
    else
      let flen = Int32.to_int (String.get_int32_le v pos) in
      if flen < 0 || pos + 4 + flen > n then invalid_arg "Value.queue_remove_last: truncated item"
      else last (pos + 4 + flen) (if matches pos then pos else found)
  in
  match last 0 (-1) with
  | -1 -> v
  | pos ->
      let stop = pos + 4 + len in
      String.sub v 0 pos ^ String.sub v stop (n - stop)

(* Association-list codec for small record-like objects, e.g. the
   reservation objects in the travel-workflow example:
   "field=value;field=value".  Fields and values must not contain '=' or
   ';'. *)

let of_fields fields =
  List.iter
    (fun (k, v) ->
      if String.exists (fun c -> c = '=' || c = ';') (k ^ v) then
        invalid_arg "Value.of_fields: field contains reserved character")
    fields;
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) fields)

let to_fields v =
  if String.length v = 0 then []
  else
    String.split_on_char ';' v
    |> List.map (fun kv ->
           match String.index_opt kv '=' with
           | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
           | None -> (kv, ""))

let field v key = List.assoc_opt key (to_fields v)

let set_field v key value =
  let fields = to_fields v in
  let fields =
    if List.mem_assoc key fields then
      List.map (fun (k, old) -> if String.equal k key then (k, value) else (k, old)) fields
    else fields @ [ (key, value) ]
  in
  of_fields fields
