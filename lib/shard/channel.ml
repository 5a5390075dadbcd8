(* Bounded MPMC mailbox: Queue + Mutex + two Conditions.

   This is deliberately the boring textbook construction — the shard
   layer's correctness story leans on the channel being trivially
   auditable.  All waiting is on condition variables (no spinning), so
   a shard domain blocked on an empty inbox consumes no CPU, and a
   producer blocked on a full inbox exerts real backpressure.  Every
   operation runs under [Mutex.protect], which also unlocks when
   [Closed] escapes. *)

type 'a t = {
  q : 'a Queue.t;
  capacity : int;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable closed : bool;
  (* counters, all under [mutex] *)
  mutable sends : int;
  mutable recvs : int;
  mutable send_blocks : int;
  mutable recv_blocks : int;
  mutable hwm : int;
}

exception Closed

let create ?(capacity = 256) () =
  if capacity <= 0 then invalid_arg "Channel.create: capacity must be positive";
  {
    q = Queue.create ();
    capacity;
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    closed = false;
    sends = 0;
    recvs = 0;
    send_blocks = 0;
    recv_blocks = 0;
    hwm = 0;
  }

let send ch v =
  Mutex.protect ch.mutex (fun () ->
      if ch.closed then raise Closed;
      if Queue.length ch.q >= ch.capacity then begin
        ch.send_blocks <- ch.send_blocks + 1;
        while (not ch.closed) && Queue.length ch.q >= ch.capacity do
          Condition.wait ch.not_full ch.mutex
        done;
        if ch.closed then raise Closed
      end;
      Queue.push v ch.q;
      ch.sends <- ch.sends + 1;
      if Queue.length ch.q > ch.hwm then ch.hwm <- Queue.length ch.q;
      Condition.signal ch.not_empty)

let try_send ch v =
  Mutex.protect ch.mutex (fun () ->
      if ch.closed then raise Closed;
      if Queue.length ch.q >= ch.capacity then false
      else begin
        Queue.push v ch.q;
        ch.sends <- ch.sends + 1;
        if Queue.length ch.q > ch.hwm then ch.hwm <- Queue.length ch.q;
        Condition.signal ch.not_empty;
        true
      end)

let recv ch =
  Mutex.protect ch.mutex (fun () ->
      if Queue.is_empty ch.q && not ch.closed then begin
        ch.recv_blocks <- ch.recv_blocks + 1;
        while Queue.is_empty ch.q && not ch.closed do
          Condition.wait ch.not_empty ch.mutex
        done
      end;
      match Queue.take_opt ch.q with
      | None -> None (* closed and drained *)
      | Some v ->
          ch.recvs <- ch.recvs + 1;
          Condition.signal ch.not_full;
          Some v)

let try_recv ch =
  Mutex.protect ch.mutex (fun () ->
      match Queue.take_opt ch.q with
      | None -> None
      | Some v ->
          ch.recvs <- ch.recvs + 1;
          Condition.signal ch.not_full;
          Some v)

let wait_nonempty ch =
  Mutex.protect ch.mutex (fun () ->
      while Queue.is_empty ch.q && not ch.closed do
        Condition.wait ch.not_empty ch.mutex
      done;
      not (Queue.is_empty ch.q))

let close ch =
  Mutex.protect ch.mutex (fun () ->
      if not ch.closed then begin
        ch.closed <- true;
        Condition.broadcast ch.not_empty;
        Condition.broadcast ch.not_full
      end)

let is_closed ch = Mutex.protect ch.mutex (fun () -> ch.closed)
let is_empty ch = Mutex.protect ch.mutex (fun () -> Queue.is_empty ch.q)
let length ch = Mutex.protect ch.mutex (fun () -> Queue.length ch.q)

let stats ch =
  Mutex.protect ch.mutex (fun () ->
      [
        ("sends", ch.sends);
        ("recvs", ch.recvs);
        ("send_blocks", ch.send_blocks);
        ("recv_blocks", ch.recv_blocks);
        ("hwm", ch.hwm);
      ])
