(** Worker domains behind per-shard FIFO mailboxes.

    The fleet service runs one {!Dbp_core.Simulator.Online} engine per
    shard, each owned by a dedicated OCaml 5 domain.  This module is
    the generic substrate: [shards] domains, each draining its own
    mailbox in submission order, posting responses to a shared outbox.
    A worker wakes, transfers its {e whole} mailbox, and processes the
    batch before looking again — that is the serve loop's tick
    batching: whatever accumulated while the shard was busy is handled
    in one sweep, amortising the wakeup.

    Together with [lib/experiments/registry.ml] this is one of the two
    sanctioned homes for [Domain]/[Atomic]/[Mutex]/[Condition] (lint
    R5 and typed T3); everywhere else parallelism must go through one
    of the two.

    Failure contract: a handler exception kills its shard — the
    shard's queued work is discarded, the first failure (pool-wide) is
    parked with its backtrace, and {!quiesce}, {!shutdown} and
    {!submit} re-raise/refuse from then on.  Per-request ordering
    within a shard is FIFO; responses from different shards interleave
    arbitrarily. *)

type ('req, 'resp) t

exception Stopped
(** Raised by {!submit} after {!shutdown} or after a shard failure. *)

val create :
  shards:int -> handler:(shard:int -> 'req -> 'resp list) -> ('req, 'resp) t
(** Spawns [shards] worker domains.  [handler ~shard req] runs on
    shard [shard]'s domain; any state it reaches must be owned by that
    shard alone (build per-shard state before [create] — the spawn
    edge publishes it safely).
    @raise Invalid_argument if [shards < 1]. *)

val shards : _ t -> int

val submit : ('req, _) t -> shard:int -> 'req -> unit
(** Enqueue on a shard's mailbox; never blocks on the worker.
    @raise Stopped if the pool is shut down or has failed.
    @raise Invalid_argument if [shard] is out of range. *)

val poll : (_, 'resp) t -> (int * 'resp) list
(** Drain whatever responses are ready, [(shard, response)] in
    completion order, without blocking.  Once {!wake_fd} has armed the
    completion pipe, [poll] empties the pipe first, then the outbox. *)

val wake_fd : _ t -> Unix.file_descr
(** The completion descriptor: the read end of a nonblocking pipe that
    becomes readable when responses are waiting, so a caller can
    [select] on it beside its own input instead of polling on a timer.
    Created on the first call (later calls return the same descriptor)
    and closed by {!shutdown}; a pool whose [wake_fd] is never called
    opens no descriptor, and its workers pay one branch per batch.

    Contract: a worker writes one byte, under the outbox lock, exactly
    when its append makes an {e empty} outbox non-empty.  {!poll}
    empties the pipe {e before} it drains the outbox, so a completion
    posted after the drain always finds the outbox empty and writes a
    byte the caller has not yet consumed: no wakeup is lost.  A byte
    written between the two steps is stale (its responses went out
    with that drain) and costs one spurious wake, whose [poll] returns
    [[]].  {!quiesce} drains without emptying the pipe, which also
    leaves at most a stale byte.  Responses already waiting when the
    pipe is created are signalled at once.  The owner alone reads the
    pipe.
    @raise Stopped after {!shutdown}. *)

val quiesce : (_, 'resp) t -> (int * 'resp) list
(** Block until every submitted request has been processed, then
    drain the outbox.  Re-raises a parked shard failure (with its
    original backtrace). *)

val shutdown : (_, 'resp) t -> (int * 'resp) list
(** Stop accepting work, let each shard drain its mailbox, join every
    domain, close the completion pipe if {!wake_fd} opened one, and
    return the remaining responses.  Idempotent (second
    call returns []).  Re-raises a parked shard failure after all
    domains are joined. *)

val spawn_background : (unit -> 'a) -> unit -> 'a
(** [spawn_background f] runs [f] on a fresh domain immediately and
    returns its join: calling the result blocks until [f] finishes
    and returns its value, re-raising [f]'s exception with the
    original backtrace.  The serve CLI uses it to run the daemon side
    of an in-process socketpair while the caller drives the client
    side. *)
