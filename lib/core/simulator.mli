(** The event-driven MinTotal DBP simulator.

    {!run} replays a full instance through a policy.  {!Online} is the
    interactive stepping interface underneath it: callers inject
    arrivals and departures one at a time and can observe the resulting
    packing state between steps — exactly the power an adaptive
    adversary has in the competitive-analysis game (used by
    [Dbp_adversary] for the Theorem 1 and 2 constructions). *)

open Dbp_num

val log_src : Logs.src
(** Placement/departure events are logged here at debug level; enable
    with [Logs.Src.set_level Simulator.log_src (Some Logs.Debug)] or
    the CLI's [--verbose]. *)

exception Invalid_decision of string
(** A policy chose a closed bin, an unknown bin, or a bin where the
    item does not fit. *)

exception Invalid_step of string
(** An {!Online} caller broke the protocol: time went backwards, an
    unknown item departed, an item id was reused or lies outside
    [[0, max_fast_item]], an unknown or already-closed bin was failed,
    or [finish] was called with items still active. *)

module Online : sig
  type t

  val create :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    ?profile:Dbp_obs.Profile.t ->
    ?grid:Fixed.scale ->
    ?tag_capacity:(string -> Rat.t) ->
    policy:Policy.t ->
    capacity:Rat.t ->
    unit ->
    t
  (** [capacity] is the base (the paper's uniform [W]); [tag_capacity]
      optionally gives bins opened under a tag their own capacity
      (heterogeneous server types).  Defaults to the base for every
      tag.  [audit] (default [false]) turns on the sanitizer: every
      event re-verifies the engine's memoised state and raises
      {!Audit.Audit_violation} on the first divergence (see
      {!Audit}).

      The three observability taps all default to off and are
      guaranteed not to change any packing decision: [sink] receives
      every engine event as a structured {!Dbp_obs.Trace_event.t}
      (arrive / pack / depart / bin_open / bin_close / fail_bin),
      [metrics] accumulates counters, gauges and histograms
      (arrivals, departures, bins opened/closed, open-bin counts,
      per-bin utilisation at pack time, item held times, exact
      bin-seconds), and [profile] accrues per-phase wall time
      ("views" — open-fleet view assembly, "policy" — the policy
      handler, "commit" — state mutation).

      The engine keeps one struct-of-arrays store, written once over
      a number representation and instantiated twice.  [grid]
      (usually {!grid_of_instance}) selects the fixed-point instance:
      all sizes, times and levels become native ints scaled by the
      grid denominator, and the commit path does no rational
      arithmetic at all.  Admission is exact-or-refuse — the instance
      is taken only if [capacity] converts exactly, and any later
      input off the grid (a time, a tag capacity) makes the engine
      rebuild its state image on the exact [Rat] instance, so results
      are bit-identical either way.  Without a grid the engine runs
      on the [Rat] instance from the start.  The observability taps
      work on both instances.

      Both instances store items dense by id: every item id
      (arrivals and migration targets) must lie in
      [[0, max_fast_item]]. *)

  val arrive : t -> now:Rat.t -> size:Rat.t -> item_id:int -> int
  (** Feeds an arrival to the policy; returns the id of the bin the
      item was placed in.  Item ids must be fresh (never used, or
      handed back by {!recycle}) and within
      [[0, max_fast_item]], and [now] must not precede any earlier
      step. *)

  val depart : t -> now:Rat.t -> item_id:int -> unit
  (** The item leaves; its bin closes if it empties. *)

  val fail_bin : t -> now:Rat.t -> bin_id:int -> (int * Rat.t) list
  (** Crashes an open bin at [now] (server failure / spot preemption):
      every active item inside is evicted and the bin closes, so it is
      charged exactly for [[opened, now]] — failed capacity still pays
      for its open interval.  Returns the evicted [(item_id, size)]
      pairs in packing order; evicted items are no longer active (a
      later {!depart} for one raises {!Invalid_step}) and their ids
      stay used.  Callers that re-dispatch evicted sessions must feed
      them back through {!arrive} under fresh item ids — that is what
      [Dbp_faults.Injector] does.
      @raise Invalid_step if the bin is unknown or already closed, or
      if [now] precedes an earlier step. *)

  val migrate :
    t -> now:Rat.t -> item_id:int -> to_bin:int -> new_item_id:int -> bool
  (** Live migration — the limited-recourse repacking primitive
      ([Dbp_repack]): atomically moves the active item [item_id] into
      the open bin [to_bin], where it continues as the fresh id
      [new_item_id].  The old id retires (stays used); exact
      accounting splits at [now]: the item's first segment ends here,
      and if the move emptied the source bin, the bin closes and is
      charged exactly for [[opened, now]].  Returns [true] iff the
      source closed.  O(1) per move; no policy handler runs —
      migration is the caller's (repacker's) decision, and the policy
      sees the new fleet through its next views.  Emits a [Migrate]
      trace event (plus [Bin_close] if the source closed) and accrues
      [migrations]/[migrated_volume] metrics.  Callers building an
      effective instance must end [item_id]'s segment and start
      [new_item_id]'s at [now] — that is what [Dbp_repack.Runner] and
      the fault injector's migration ladder do.
      @raise Invalid_step if the item is not active, the destination
      is unknown, closed or the item's own bin, the item does not fit,
      [new_item_id] was already used, or [now] precedes an earlier
      step. *)

  val recycle : t -> item_id:int -> unit
  (** Hands back the id of a departed (or evicted, or migrated-away)
      item, so a later arrival or migration may use it again.  Its
      placements stay in the bins' histories, so records, images and
      costs are unaffected.  A long-running caller that recycles every
      departed id needs no more ids than it has items resident at
      once ([Dbp_serve] does this).  An image frozen after a recycle
      may name an id in several placement histories; [thaw] accepts
      that, and the thawed engine counts every placed id as used.
      @raise Invalid_step unless [item_id] was used and is inactive. *)

  val now : t -> Rat.t option
  (** Time of the latest step. *)

  val open_bins : t -> Bin.view list
  (** Views of the open bins in opening order. *)

  val bin_of_item : t -> int -> int option
  (** Bin currently holding an active item. *)

  val active_items_in : t -> int -> (int * Rat.t) list
  (** [(item_id, size)] of active items in a bin, most recent first. *)

  val level_of : t -> int -> Rat.t option
  (** Current level of an open bin. *)

  val finish : t -> instance:Instance.t -> Packing.t
  (** Assembles the packing result.  The instance must contain exactly
      the items that were stepped through (same ids, sizes and times);
      all items must have departed.  In audit mode the assembled
      packing is additionally checked for cost conservation
      ({!Audit.check_packing}). *)

  val audit : t -> unit
  (** Runs the full invariant audit immediately, regardless of the
      [?audit] flag: slot-array structure (["open-index"]), memoised
      per-bin level, count and view vs a recompute (["bin"]),
      scaled vs exact columns (["store"]), item-tracking consistency
      (["item-bin"]).
      @raise Audit.Audit_violation on the first divergence. *)

  (** Deliberate damage to the engine store, for the auditor's
      negative tests. *)
  type corruption =
    | Bump_level of { bin : int; by : Rat.t }
        (** The bin's memoised level drifts from its items. *)
    | Stale_view of int  (** The bin's policy view stops matching it. *)
    | Close_flag of int
        (** The bin is marked closed behind the open-slot array. *)
    | Untrack_item of int
        (** The active item leaves its bin's tracking; the bin's level,
            count and view are patched to match, so only the item
            totals disagree. *)

  val corrupt_for_test : t -> corruption -> unit
  (** Applies the damage in place.  Test hook only: afterwards the
      engine is broken for real, and {!audit} must say so. *)

  (** The checkpointable image of a running engine: exactly the
      non-derivable state.  Levels, the open slots, item tracking and
      item-seen sets are re-derived on {!thaw}, so a frozen image (or
      a snapshot file decoded into one) can never rebuild an engine
      with an inconsistent cache. *)
  module Frozen : sig
    type bin = {
      b_id : int;
      b_tag : string;
      b_capacity : Rat.t;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : Rat.t;
      b_placements : (Rat.t * int) list;
          (** Every placement ever, oldest first. *)
      b_active : (int * Rat.t) list;
          (** [(item_id, size)] still inside, oldest placement
              first.  An active item's arrival is its placement time,
              so it is not stored separately. *)
    }

    type t = {
      s_capacity : Rat.t;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;  (** In id order; ids are dense from 0. *)
      s_policy_state : string option;
          (** The policy's {!Policy.state_io} blob, if stateful. *)
    }
  end

  val freeze : t -> Frozen.t
  (** Captures the full engine state between events.
      @raise Invalid_step if the policy's state is
      {!Policy.Volatile} — such a run cannot checkpoint. *)

  val thaw :
    ?audit:bool ->
    ?sink:Dbp_obs.Sink.t ->
    ?metrics:Dbp_obs.Metrics.t ->
    ?profile:Dbp_obs.Profile.t ->
    ?tag_capacity:(string -> Rat.t) ->
    policy:Policy.t ->
    Frozen.t ->
    t
  (** Rebuilds an engine that continues the frozen run bit-identically:
      feeding it the remaining events yields the same packing, cost and
      trace events as the uninterrupted run.  The policy must be the
      same as the frozen run's (same name, same seed); its internal
      state is restored through {!Policy.state_io}.  The rebuilt state
      is always re-audited (the full {!audit} pass), regardless of
      [?audit].
      @raise Invalid_step on an inconsistent image (non-dense bin ids,
      active items without placements, over-capacity bins, policy
      state present/absent against the policy's declared persistence,
      or a volatile policy). *)

  val track_name : t -> string
  (** ["fixed"] while the engine runs on the scaled-integer store
      instance, ["exact"] on the [Rat] instance (including after a
      fallback).  Taps do not affect it.  For benchmarks and tests;
      results never depend on it. *)
end

val max_fast_item : int
(** [2^23 - 1] — the largest item id the engine accepts.  Its store
    is dense in item id, and the packed replay key below reserves 24
    bits for the id: keeping admissible ids strictly below the kind
    bit means an id can never carry into the kind or time fields.
    Larger ids raise {!Invalid_step}; callers with sparse ids (the
    fleet daemon) intern them first. *)

val event_key_time_limit : int
(** [2^37] — exclusive bound on the scaled times a packed replay key
    can carry (37 time bits + 25 layout bits = 62, so keys stay
    positive OCaml ints for the radix sort). *)

val pack_event_key : time_s:int -> arrival:bool -> id:int -> int
(** The scaled replay key of {!run}, [(time_s << 25) | (kind << 24) | id]
    with departures' kind bit 0: integer order is exactly
    {!Event.compare}'s (time, departures first, then item id).
    Exposed so tests can pin the layout at its boundaries.
    @raise Invalid_argument if [id] is outside [0, max_fast_item] or
    [time_s] outside [0, event_key_time_limit). *)

val unpack_event_key : int -> int * bool * int
(** [(time_s, arrival, id)] — left inverse of {!pack_event_key}. *)

val grid_of_instance : Instance.t -> Fixed.scale option
(** The instance's common grid: the least denominator under which the
    capacity and every item size, arrival and departure are exactly
    representable scaled integers within {!Fixed.bound}.  [None] if no
    such affordable grid exists — the run then stays on exact
    arithmetic.  Pass the result to {!Online.create}'s [?grid]. *)

val grid_of_den : int -> Fixed.scale option
(** The grid with denominator [d], or [None] if [d] is outside the
    affordable range.  For streaming drivers that pick the grid up
    front (no instance to inspect) — the engine still degrades to
    exact arithmetic losslessly on any off-grid input. *)

val apply_event : Online.t -> Event.t -> unit
(** Feeds one instance event (arrival or departure) to the engine —
    the replay step {!run} is built from, exposed so checkpoint
    drivers can stop after, and resume from, an exact event index. *)

val run :
  ?audit:bool ->
  ?sink:Dbp_obs.Sink.t ->
  ?metrics:Dbp_obs.Metrics.t ->
  ?profile:Dbp_obs.Profile.t ->
  ?grid:Fixed.scale option ->
  ?tag_capacity:(string -> Rat.t) ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(events_done:int -> Online.t -> unit) ->
  policy:Policy.t ->
  Instance.t ->
  Packing.t
(** Replays the instance's event stream (departures before arrivals at
    equal times, arrivals in submission order) and assembles the
    result.  [audit] defaults to {!Audit.enabled_from_env}, so setting
    [DBP_AUDIT=1] audits every run in the process.  [sink], [metrics]
    and [profile] are the observability taps of {!Online.create}; a
    traced or metered run produces a bit-identical packing to an
    untraced one.  [grid] overrides the numeric track choice
    ([Some None] forces exact arithmetic); by default the run computes
    {!grid_of_instance} itself and takes the fast track whenever the
    instance lies on a grid.

    [checkpoint_every] (with [on_checkpoint]) calls the hook after
    every [k]-th event with the engine mid-run — the periodic
    checkpoint tap; the hook typically calls {!Online.freeze} and
    hands the image to [Dbp_checkpoint].  Neither option changes any
    packing decision.
    @raise Invalid_argument if [checkpoint_every <= 0]. *)
