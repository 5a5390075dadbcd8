(** Bounded multi-producer multi-consumer mailboxes between domains.

    The shard layer's only cross-domain communication primitive: every
    message between the coordinator and a shard server travels through
    one of these.  A channel is a mutex-protected queue with two
    condition variables; [send] blocks when the channel is full — the
    backpressure that keeps a fast producer from flooding a busy shard
    — and [recv] blocks when it is empty.

    Closing is how shards learn a conversation is over: after [close],
    senders get {!Closed}, drained receivers get [None], and every
    blocked party wakes.  A shard server that sees its inbox closed and
    empty presumes abort for any undecided cross-shard transaction
    (2PC presumed abort: no decision record, no commit). *)

type 'a t

exception Closed
(** Raised by [send] on (or woken into by the close of) a closed
    channel. *)

val create : ?capacity:int -> unit -> 'a t
(** A fresh channel holding at most [capacity] (default 256, must be
    positive) undelivered messages. *)

val send : 'a t -> 'a -> unit
(** Enqueue, blocking while the channel is full.  Raises {!Closed} if
    the channel is (or becomes, while blocked) closed. *)

val try_send : 'a t -> 'a -> bool
(** Non-blocking send: [false] when full.  Raises {!Closed} when
    closed. *)

val recv : 'a t -> 'a option
(** Dequeue, blocking while the channel is empty; [None] once the
    channel is closed and drained. *)

val try_recv : 'a t -> 'a option
(** Non-blocking dequeue: [None] when nothing is available (whether or
    not the channel is closed — pair with {!is_closed} to tell). *)

val wait_nonempty : 'a t -> bool
(** Block until a message is available ([true]) or the channel is
    closed and empty ([false]).  Does not consume anything — the shard
    server's stall hook parks here, then lets the scheduler's pump
    fiber do the actual receive. *)

val close : 'a t -> unit
(** Mark the channel closed and wake every blocked sender and
    receiver.  Already-queued messages remain receivable.
    Idempotent. *)

val is_closed : 'a t -> bool
val is_empty : 'a t -> bool
val length : 'a t -> int

val stats : 'a t -> (string * int) list
(** Counters: ["sends"], ["recvs"], ["send_blocks"] (sends that had to
    wait for space — the backpressure observable), ["recv_blocks"]
    ({!recv} and {!wait_nonempty} calls that found the channel empty
    and open, so had to wait), and ["hwm"] (queue-length high-water
    mark). *)
