(** The fleet service: a long-running sharded allocator daemon.

    [dbp serve] turns the batch simulator into a serving system: it
    reads arrive/depart events as [dbp-trace/2] NDJSON from a stream
    (stdin, a Unix socket, or TCP), answers each arrival with a
    placement line naming the bin, and shards bins across OCaml 5
    domains — each shard a full {!Dbp_core.Simulator.Online} engine
    behind a {!Shard_pool} mailbox, events batched per tick, arrivals
    routed by {!Router} (MFF's large/small pool split as the sharding
    strategy).

    Wire protocol, server to client, one JSON object per line:
    - [{"kind":"place","seq":s,"item":i,"bin":b,"shard":k}] — the
      answer to the arrival with sequence number [s].  FIFO per
      shard; across shards lines interleave in completion order.
    - [{"kind":"summary","schema":"dbp-serve-summary/1",...}] — at
      end of stream: fleet counters and the exact total cost.  The
      fleet cost is the exact {!Dbp_num.Rat} sum of per-shard costs,
      and at [--shards 1] its string is bit-identical to
      [dbp simulate] on the same instance.
    - [{"kind":"error",...}] — protocol violation; the daemon exits
      with status 2 (malformed input, sequence/time violations,
      unknown departures, oversized items).

    Client to server: [dbp-trace/2] [arrive] and [depart] events,
    sequence numbers exactly [0, 1, 2, ...] per connection, time
    non-decreasing across the whole daemon lifetime.  A [depart]'s
    [bin]/[held] fields are ignored (the client cannot know them);
    by convention a client sends [-1] and ["0"].

    Shard loss ({!Fleet.fail_shard}, exercised by tests) degrades
    gracefully: every open bin on the failed shard fails, victims are
    re-admitted into surviving shards through the budget-aware
    migration path (PR 6's {!Dbp_repack.Budget}), and sessions the
    budget cannot afford are shed — the degradation ladder from
    full-fleet to best-effort.  On SIGTERM the daemon quiesces,
    flushes one [dbp-checkpoint/1] snapshot per shard (with the
    shard's session map beside it) and exits 0. *)

open Dbp_num
open Dbp_core

exception Protocol of string
(** A client broke the wire contract; the CLI maps it to exit 2. *)

type config = {
  shards : int;
  policy : Policy.t;  (** Shared across shards; each engine spawns
                          fresh policy state. *)
  policy_name : string;
  capacity : Rat.t;
  seed : int64;  (** Recorded in checkpoint metadata. *)
  route : Router.policy;
  split_k : Rat.t;  (** Router large-pool divisor, as in [mff:<k>]. *)
  grid_den : int option;
      (** Fixed-point denominator for the per-shard engines' fast
          track; [None] runs exact. *)
  budget : Dbp_repack.Budget.spec;
      (** Recourse for shard-loss migration. *)
}

val default_config : unit -> config
(** First Fit, 1 shard, capacity 1, size-class routing with [k = 2],
    exact track, unlimited migration budget. *)

type placement = { p_seq : int; p_item : int; p_bin : int; p_shard : int }

type summary = {
  su_shards : int;
  su_live : int;
  su_arrivals : int;
  su_departures : int;
  su_active : int;  (** Sessions resident when the summary was cut. *)
  su_migrated : int;  (** Sessions moved off failed shards. *)
  su_shed : int;  (** Sessions lost to shard failure (budget denied). *)
  su_bins_opened : int;
  su_cost : Rat.t;  (** Exact fleet bin-seconds so far. *)
  su_shard_costs : Rat.t array;
}

val placement_line : placement -> string
val summary_line : config -> summary -> string

(** The transport-independent fleet: shard engines, router, session
    tables, budget.  Exposed so tests can drive it directly.

    Client item ids are interned at the boundary: each shard engine
    numbers its sessions densely from 0 (a migrated session gets a
    fresh id on its new shard), so any non-negative client id keeps
    the engines on their fixed-point store.  A departed session's
    engine id is recycled ({!Dbp_core.Simulator.Online.recycle}), so
    a shard's engine ids stay below its peak number of resident
    sessions however many sessions it serves.  Placement replies carry
    the client's id; engine images ({!snapshot}) carry engine ids, and
    {!write_checkpoints} writes the map back to client ids. *)
module Fleet : sig
  type t

  val create : config -> t
  (** Under [DBP_AUDIT=1] ({!Dbp_core.Audit.enabled_from_env}) every
      shard engine runs in audit mode. *)

  val arrive : t -> seq:int -> now:Rat.t -> size:Rat.t -> item:int -> unit
  (** Route and enqueue an arrival.  @raise Protocol on duplicate
      ids, time regression, sizes outside (0, capacity], or a shard
      that already holds [Simulator.max_fast_item + 1] resident
      sessions. *)

  val depart : t -> now:Rat.t -> item:int -> unit
  (** @raise Protocol for an unknown item.  Departures of shed
      sessions are counted and dropped. *)

  val apply : t -> Dbp_obs.Trace_event.t -> unit
  (** Dispatch a wire event.  @raise Protocol on kinds other than
      [arrive]/[depart]. *)

  val placements : t -> placement list
  (** Non-blocking: whatever placement answers are ready. *)

  val quiesce : t -> placement list
  (** Block until every enqueued event is processed. *)

  val fail_shard : t -> now:Rat.t -> int -> placement list
  (** Simulated shard loss: fail every open bin on the shard, then
      migrate its victims into surviving shards within the budget
      (shedding the rest).  Returns placements that were in flight.
      @raise Invalid_argument if the shard id is out of range or all
      shards would be dead. *)

  val snapshot : t -> placement list * Simulator.Online.Frozen.t array
  (** Quiesce and freeze every shard engine (the pool keeps
      running). *)

  val summarize : t -> Simulator.Online.Frozen.t array -> summary

  val events_applied : t -> int

  val shutdown : t -> unit

  val write_checkpoints :
    t -> prefix:string -> Simulator.Online.Frozen.t array -> string list
  (** One [dbp-checkpoint/1] file per shard, [PREFIX.shard<k>], and
      beside it [PREFIX.shard<k>.sessions]: a CSV with header
      [engine,client] and one row per active session on the shard, in
      engine id order — the client of each active item in the image.
      Returns the paths written. *)
end

val install_sigterm : unit -> unit -> bool
(** Installs SIGTERM/SIGINT handlers; the returned thunk reports
    whether a signal has arrived.  Also ignores SIGPIPE so a client
    hangup surfaces as [EPIPE] instead of killing the daemon. *)

val run_stream :
  config ->
  ?checkpoint:string ->
  ?should_stop:(unit -> bool) ->
  input:Unix.file_descr ->
  output:Unix.file_descr ->
  unit ->
  (summary, string) result
(** Serve one NDJSON stream to completion ([--stdio] and the replay
    socketpair): placements and the final summary go to [output].
    [should_stop] is polled between ticks; when it fires the daemon
    quiesces, writes [checkpoint] snapshots if configured, emits the
    summary and returns. *)

val run_listener :
  config ->
  ?checkpoint:string ->
  ?should_stop:(unit -> bool) ->
  Unix.file_descr ->
  (summary, string) result
(** The daemon proper: accept one client at a time on a listening
    socket, each connection a fresh sequence-numbered stream against
    the {e same} fleet (sessions persist across connections; time is
    monotone for the daemon's lifetime).  Each client receives a
    summary when its stream ends.  Returns at SIGTERM (flushing
    checkpoints) or on a protocol error. *)

val replay_client :
  ?echo:(string -> unit) ->
  Unix.file_descr ->
  Instance.t ->
  (string, string) result
(** Stream an instance's canonical event order to a connected serve
    daemon, draining placements concurrently ([echo] sees every
    placement line); returns the daemon's summary line. *)

val replay :
  config ->
  ?echo:(string -> unit) ->
  Instance.t ->
  (string, string) result
(** In-process end-to-end: run the daemon on one end of a socketpair
    (background domain) and {!replay_client} on the other.  Returns
    the summary line the daemon produced. *)

type bench_result = {
  br_sessions : int;
  br_events : int;
  br_elapsed_s : float;
  br_events_per_s : float;
  br_p50_us : float;  (** Median arrival-to-placement latency. *)
  br_p99_us : float;
  br_cost : string;  (** The daemon's exact fleet cost string. *)
  br_bins_opened : int;
}

val bench : config -> sessions:int -> (bench_result, string) result
(** The soak: drive [sessions] concurrent sessions (one arrival and
    one departure each, all alive at peak) through a socketpair
    against a live daemon, measuring client-observed placement
    latency per arrival and sustained events/s over the whole
    stream. *)

val bench_json : config -> bench_result -> string
(** The [dbp-bench-serve/1] BENCH JSON document. *)
