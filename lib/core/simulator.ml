open Dbp_num

let log_src = Logs.Src.create "dbp.simulator" ~doc:"MinTotal DBP simulator"

module Log = (val Logs.src_log log_src : Logs.LOG)

exception Invalid_decision of string
exception Invalid_step of string

let invalid_decision fmt = Format.kasprintf (fun s -> raise (Invalid_decision s)) fmt
let invalid_step fmt = Format.kasprintf (fun s -> raise (Invalid_step s)) fmt

(* The engine store is dense in item id, so ids are bounded: a huge id
   would force a huge allocation. *)
let max_fast_item = (1 lsl 23) - 1

(* The scaled replay packs each event into one int:
   [(time_s << 25) | (kind << 24) | id].  The id field is 24 bits
   wide; [max_fast_item] (2^23 - 1) keeps every admissible id strictly
   below the kind bit, so an id can never carry into — and silently
   flip — the kind or time fields.  Off-grid or out-of-range times
   must take the comparison-sorted event-array path instead;
   [pack_event_key] enforces both bounds so the
   invariant is checked at the packing site, not trusted from afar. *)
let event_key_id_bits = 24
let event_key_id_mask = (1 lsl event_key_id_bits) - 1
let event_key_kind_bit = 1 lsl event_key_id_bits
let event_key_time_shift = event_key_id_bits + 1

(* Scaled times must stay under 2^37 so the key (37 + 25 = 62 bits)
   remains a positive OCaml int for the radix sort. *)
let event_key_time_limit = 1 lsl 37

let () = assert (max_fast_item < event_key_id_mask)

let pack_event_key ~time_s ~arrival ~id =
  if id < 0 || id > max_fast_item then
    invalid_arg "Simulator.pack_event_key: id outside [0, max_fast_item]";
  if time_s < 0 || time_s >= event_key_time_limit then
    invalid_arg "Simulator.pack_event_key: scaled time out of range";
  (time_s lsl event_key_time_shift)
  lor (if arrival then event_key_kind_bit else 0)
  lor id

let unpack_event_key k =
  ( k lsr event_key_time_shift,
    k land event_key_kind_bit <> 0,
    k land event_key_id_mask )

(* LSD radix sort of non-negative keys, 16-bit digits.  Linear in the
   input against the comparison sort's n log n closure calls — the
   event stream and the finish-time timeline both sort scaled-integer
   keys this way on the fixed store.  Passes whose digit is constant
   across the input (the common case for high digits) are skipped.
   Returns a sorted array that may or may not be the input array;
   the input is clobbered either way. *)
let radix_sort_pos a =
  let n = Array.length a in
  if n <= 4096 then begin
    (* Below this the per-pass digit histograms dominate; a comparison
       sort on immediate ints is faster and equally correct. *)
    Array.sort (fun (x : int) (y : int) -> Int.compare x y) a;
    a
  end
  else begin
    let tmp = Array.make n 0 in
    let count = Array.make 65536 0 in
    let src = ref a and dst = ref tmp in
    for pass = 0 to 3 do
      let shift = 16 * pass in
      let s = !src in
      Array.fill count 0 65536 0;
      for i = 0 to n - 1 do
        let d = (s.(i) lsr shift) land 0xffff in
        count.(d) <- count.(d) + 1
      done;
      if count.((s.(0) lsr shift) land 0xffff) <> n then begin
        let acc = ref 0 in
        for d = 0 to 65535 do
          let c = count.(d) in
          count.(d) <- !acc;
          acc := !acc + c
        done;
        let t = !dst in
        for i = 0 to n - 1 do
          let v = s.(i) in
          let d = (v lsr shift) land 0xffff in
          t.(count.(d)) <- v;
          count.(d) <- count.(d) + 1
        done;
        src := t;
        dst := s
      end
    done;
    !src
  end

module Online = struct
  (* Engine invariants (see DESIGN.md "Simulator engine" and "Numeric
     fast path"):

     - Bins live in a struct-of-arrays store, dense by id, so resolving
       a policy's [Existing id] is an array read.
     - The open subset is materialised as a slot array of policy views
       in opening order; the view list handed to policies is a walk of
       it, O(open bins).
     - Items are dense by id too: [i_bin.(id)] is the item's bin, so
       [depart] does no search at all.
     - Placements are records of their own, in a log dense by
       placement index; a bin's history lists placement indices.  A
       departed id can therefore be handed back ([recycle]) and used
       again without rewriting any bin's history, so a long-running
       caller needs no more ids than it has residents.

     Per-event cost is therefore O(open bins) — independent of how
     many bins the run has ever opened.

     The store is written once, over a small number signature
     ([NUM]), and instantiated twice: [Fx] keeps every size, time and
     level as a native int over the run's common grid denominator, so
     the commit path is pure int array arithmetic; [Rq] keeps them as
     exact [Rat.t].  Admission to [Fx] is exact-or-refuse: it is
     entered only when the capacity lies on the grid, and any mid-run
     input that does not convert (an off-grid time from a fault
     injector, a tag capacity off the grid) triggers [degrade], which
     rebuilds the frozen engine image as an [Rq] store and continues
     there.  Conversions both ways are exact and [Rat.make] always
     normalises, so the two instances produce bit-identical packings,
     traces and snapshots. *)

  (* The checkpointable image: only the non-derivable engine state.
     Per bin that is the identity, the lifecycle times and the
     placement history; levels, slots and item tracking are re-derived
     on rebuild, so an image cannot carry an internally inconsistent
     cache.  Active items are stored as (item id, size): an item's
     arrival is its placement time by construction, so it comes back
     from the placement list. *)
  module Frozen = struct
    type bin = {
      b_id : int;
      b_tag : string;
      b_capacity : Rat.t;
      b_opened : Rat.t;
      b_closed : Rat.t option;
      b_max_level : Rat.t;
      b_placements : (Rat.t * int) list;  (* oldest placement first *)
      b_active : (int * Rat.t) list;  (* (item, size), oldest first *)
    }

    type t = {
      s_capacity : Rat.t;
      s_clock : Rat.t option;
      s_violations : int;
      s_bins : bin list;  (* id order *)
      s_policy_state : string option;
    }
  end

  type corruption =
    | Bump_level of { bin : int; by : Rat.t }
    | Stale_view of int
    | Close_flag of int
    | Untrack_item of int

  (* What every store operation needs from the engine around it: the
     policy, the capacity map and the observability taps.  All three
     taps default to [None]; with no sink, no metrics and no debug
     logging the cost is one test of [observed] per event.  Emission
     converts through [N.to_rat], so a sink or metrics registry works
     on either numeric instance. *)
  type env = {
    capacity : Rat.t;
    tag_capacity : string -> Rat.t;
    handlers : Policy.handlers;
    audit : bool;  (* re-verify every invariant after every event *)
    sink : Dbp_obs.Sink.t option;
    metrics : Dbp_obs.Metrics.t option;
    profile : Dbp_obs.Profile.t option;
    observed : bool;  (* a sink, a metrics registry or debug logging *)
    mutable violations : int;
  }

  (* An input the [Fx] store cannot represent exactly.  [Off_grid] is
     raised before any mutation; [Off_grid_commit] after the policy
     chose a new bin whose tag capacity is off the grid, carrying the
     decision (and the views it was made on) so the rebuilt store can
     commit it without running the policy twice. *)
  exception Off_grid
  exception Off_grid_commit of Policy.decision * Bin.view list

  module E = Dbp_obs.Trace_event

  let fleet_metrics m ~open_now =
    Dbp_obs.Metrics.set_gauge m "open_bins" open_now;
    Dbp_obs.Metrics.observe_int m "open_bins" open_now

  (* A bin's usage period just ended (departure-close, migration or
     failure): account its exact MinTotal contribution. *)
  let close_metrics m ~cost =
    Dbp_obs.Metrics.incr m "bins_closed";
    Dbp_obs.Metrics.add_rat m "bin_seconds" cost;
    Dbp_obs.Metrics.observe_rat m "bin_lifetime" cost

  (* [New_bin] with room elsewhere: an Any Fit violation. *)
  let rec any_fits size = function
    | [] -> false
    | (v : Bin.view) :: vs -> Rat.(size <= v.bin_residual) || any_fits size vs

  module type NUM = sig
    type t
    type grid

    val zero : t
    val of_rat : grid -> Rat.t -> t option
    val to_rat : grid -> t -> Rat.t
    val add : t -> t -> t
    val sub : t -> t -> t
    val compare : t -> t -> int

    (* The per-event operations.  They are coarse, so a functor-applied
       event pays one indirect call per step rather than one per
       primitive, and they write the store's columns from inside the
       instance, where the element type is known (the store itself
       cannot rule out float arrays, so its own writes go through the
       generic write barrier). *)

    val advance : t array -> t -> bool -> int
    (** [advance clock now started] is the sign of [now - clock.(0)]
        (1 if not [started]); when positive, [clock.(0)] becomes
        [now]. *)

    val fits_at : t array -> t array -> int -> t -> bool
    (** [fits_at levels caps id size] is [levels.(id) + size <= caps.(id)]. *)

    val occupy_at : t array -> t array -> t array -> int -> int -> t -> unit
    (** [occupy_at levels maxes sizes bin item size] records [item]'s
        [size] and raises [bin]'s level by it, and its running maximum
        with it. *)

    val vacate_at : t array -> t array -> int -> int -> unit
    (** [vacate_at levels sizes bin item] lowers [bin]'s level by
        [item]'s size. *)

    val close_at : t array -> t array -> int -> t -> unit
    (** [close_at levels closed bin now] zeroes [bin]'s level and
        records its close time. *)

    val view :
      grid -> int -> string -> Rat.t -> Rat.t -> t -> t -> int -> Bin.view
    (** [view g id tag cap opened cap_n level count] is bin [id]'s
        policy view: the level and the residual [cap_n - level],
        projected to exact rationals. *)
  end

  module Store (N : NUM) = struct
    type t = {
      g : N.grid;
      (* Bins, struct-of-arrays, dense by id.  The Rat columns cache
         the exact boxes handed in at open time — stored pointers,
         never recomputed. *)
      mutable b_len : int;  (* bins ever opened *)
      mutable b_tag : string array;
      mutable b_cap_n : N.t array;
      mutable b_cap : Rat.t array;
      mutable b_level : N.t array;
      mutable b_max : N.t array;
      mutable b_active : int array;  (* active item count per bin *)
      mutable b_opened : Rat.t array;
      mutable b_closed : Rat.t option array;  (* None = open *)
      mutable b_opened_n : N.t array;
      mutable b_closed_n : N.t array;  (* valid iff b_closed is Some *)
      mutable b_hist : int array;  (* latest placement, -1 if none *)
      (* The open subset, materialised: [o_views.(0 .. o_len-1)] are
         policy views in opening (= ascending id) order, and
         [b_slot.(id)] is a bin's slot (-1 once closed).  Invalidation
         is batched: commits only push the touched bin onto [d_stack]
         and the stale slots are re-projected once, at the next view
         read — so events nobody observes (a departure under a no-op
         handler) never pay the two conversions a view costs. *)
      mutable o_views : Bin.view array;
      mutable o_len : int;
      mutable b_slot : int array;
      mutable b_dirty : bool array;  (* gates [d_stack] pushes *)
      mutable d_stack : int array;
      mutable d_len : int;
      (* Items, dense by id.  [i_bin] doubles as the seen-set:
         -2 = never seen, -1 = seen but inactive, >= 0 = active in
         that bin. *)
      mutable i_bin : int array;
      mutable i_size_n : N.t array;
      mutable i_size : Rat.t array;
      mutable i_place : int array;  (* the id's latest placement *)
      (* The placement log: placement [p] put item [p_item.(p)] into a
         bin at [p_time.(p)]; [p_next.(p)] is the bin's placement before
         it (-1 for its first), so a bin's history is a chain from
         [b_hist]. *)
      mutable p_item : int array;
      mutable p_time : Rat.t array;
      mutable p_next : int array;
      mutable p_len : int;
      mutable i_max_seen : int;
      mutable i_seen : int;
      mutable i_active : int;
      (* Clock.  [now] caches the exact rational of the same instant,
         materialised lazily ([now_ok]) so scaled-entry events that
         never need the boxed time never convert. *)
      mutable started : bool;
      clock : N.t array;  (* one cell, written by [N.advance] *)
      mutable now : Rat.t;
      mutable now_ok : bool;
    }

    (* [items] sizes the item columns and the placement log up front
       (they grow on demand past it). *)
    let create ?(items = 0) g =
      {
        g;
        b_len = 0;
        b_tag = [||];
        b_cap_n = [||];
        b_cap = [||];
        b_level = [||];
        b_max = [||];
        b_active = [||];
        b_opened = [||];
        b_closed = [||];
        b_opened_n = [||];
        b_closed_n = [||];
        b_hist = [||];
        o_views = [||];
        o_len = 0;
        b_slot = [||];
        b_dirty = [||];
        d_stack = [||];
        d_len = 0;
        i_bin = Array.make items (-2);
        i_size_n = Array.make items N.zero;
        i_size = Array.make items Rat.zero;
        i_place = Array.make items (-1);
        p_item = Array.make items 0;
        p_time = Array.make items Rat.zero;
        p_next = Array.make items (-1);
        p_len = 0;
        i_max_seen = -1;
        i_seen = 0;
        i_active = 0;
        started = false;
        clock = [| N.zero |];
        now = Rat.zero;
        now_ok = false;
      }

    let grow m a fill =
      let a' = Array.make m fill in
      Array.blit a 0 a' 0 (Array.length a);
      a'

    let grow_bins s =
      let m = max 64 (2 * Array.length s.b_tag) in
      s.b_tag <- grow m s.b_tag "";
      s.b_cap_n <- grow m s.b_cap_n N.zero;
      s.b_cap <- grow m s.b_cap Rat.zero;
      s.b_level <- grow m s.b_level N.zero;
      s.b_max <- grow m s.b_max N.zero;
      s.b_active <- grow m s.b_active 0;
      s.b_opened <- grow m s.b_opened Rat.zero;
      s.b_closed <- grow m s.b_closed None;
      s.b_opened_n <- grow m s.b_opened_n N.zero;
      s.b_closed_n <- grow m s.b_closed_n N.zero;
      s.b_hist <- grow m s.b_hist (-1);
      s.b_slot <- grow m s.b_slot (-1);
      s.b_dirty <- grow m s.b_dirty false

    (* Ids index the item columns directly, so they are bounded: the
       check doubles as the guard against a huge id forcing a huge
       allocation. *)
    let check_item ~what s item_id =
      if item_id < 0 || item_id > max_fast_item then
        invalid_step "%sitem id %d outside [0, %d]" what item_id max_fast_item;
      let n = Array.length s.i_bin in
      if item_id >= n then begin
        let m = max (max 1024 (2 * n)) (item_id + 1) in
        s.i_bin <- grow m s.i_bin (-2);
        s.i_size_n <- grow m s.i_size_n N.zero;
        s.i_size <- grow m s.i_size Rat.zero;
        s.i_place <- grow m s.i_place (-1)
      end

    let mark_seen s item_id =
      s.i_bin.(item_id) <- -1;
      s.i_seen <- s.i_seen + 1;
      if item_id > s.i_max_seen then s.i_max_seen <- item_id

    (* Hands a departed id back: it counts as never seen, so the next
       arrival or migration may take it.  Its placements stay in the
       log, so bin histories and images are unaffected. *)
    let recycle s item_id =
      if
        item_id < 0
        || item_id >= Array.length s.i_bin
        || s.i_bin.(item_id) <> -1
      then invalid_step "recycle of unknown or active item %d" item_id;
      s.i_bin.(item_id) <- -2;
      s.i_seen <- s.i_seen - 1

    (* Placement [p] in bin [b] is live: its item is active there and
       this is the item's latest placement (a recycled id may appear
       in a history more than once). *)
    let live s b p =
      let i = s.p_item.(p) in
      s.i_bin.(i) = b && s.i_place.(i) = p

    let arrival s item_id = s.p_time.(s.i_place.(item_id))

    (* Folds [f] over bin [b]'s placements, newest first. *)
    let fold_hist s b f acc =
      let rec go p acc = if p < 0 then acc else go s.p_next.(p) (f acc p) in
      go s.b_hist.(b) acc

    (* Bin [b]'s placements, oldest first. *)
    let hist s b = fold_hist s b (fun acc p -> p :: acc) []

    let conv s r = match N.of_rat s.g r with Some v -> v | None -> raise Off_grid
    let is_bin s id = id >= 0 && id < s.b_len
    let residual s id = N.sub s.b_cap_n.(id) s.b_level.(id)

    (* A fresh view of bin [id]: the only place that pays the two
       conversions back to exact rationals. *)
    let view_of s id =
      N.view s.g id s.b_tag.(id) s.b_cap.(id) s.b_opened.(id) s.b_cap_n.(id)
        s.b_level.(id) s.b_active.(id)

    (* Refresh the touched bin's slot after a level/count change. *)
    let refresh_slot s id = s.o_views.(s.b_slot.(id)) <- view_of s id

    (* Batched invalidation: a commit records which bin changed; the
       stale slots are re-projected together at the next view read. *)
    let mark_dirty s id =
      if not s.b_dirty.(id) then begin
        s.b_dirty.(id) <- true;
        let n = Array.length s.d_stack in
        if s.d_len >= n then begin
          let a = Array.make (max 64 (2 * n)) 0 in
          Array.blit s.d_stack 0 a 0 n;
          s.d_stack <- a
        end;
        s.d_stack.(s.d_len) <- id;
        s.d_len <- s.d_len + 1
      end

    let flush_views s =
      if s.d_len > 0 then begin
        for i = 0 to s.d_len - 1 do
          let id = s.d_stack.(i) in
          s.b_dirty.(id) <- false;
          (* A dirty bin may have closed before the flush; its slot is
             gone and there is nothing to refresh. *)
          if s.b_slot.(id) >= 0 then refresh_slot s id
        done;
        s.d_len <- 0
      end

    let open_slot_append s id =
      let v = view_of s id in
      let n = Array.length s.o_views in
      if s.o_len >= n then begin
        let a = Array.make (max 64 (2 * n)) v in
        Array.blit s.o_views 0 a 0 n;
        s.o_views <- a
      end;
      s.o_views.(s.o_len) <- v;
      s.b_slot.(id) <- s.o_len;
      s.o_len <- s.o_len + 1

    let open_slot_remove s id =
      let slot = s.b_slot.(id) in
      for i = slot to s.o_len - 2 do
        let v = s.o_views.(i + 1) in
        s.o_views.(i) <- v;
        s.b_slot.(v.Bin.bin_id) <- i
      done;
      s.b_slot.(id) <- -1;
      s.o_len <- s.o_len - 1

    (* The policy-facing view list in opening order: a sequential walk
       of the dense slot array. *)
    let views s =
      flush_views s;
      let rec go acc i = if i < 0 then acc else go (s.o_views.(i) :: acc) (i - 1) in
      go [] (s.o_len - 1)

    (* The current clock as an exact rational, converted at most once
       per tick.  The conversion is exact and canonical, so it is the
       very value the caller handed in. *)
    let now_rat s =
      if s.now_ok then s.now
      else begin
        let r = N.to_rat s.g s.clock.(0) in
        s.now <- r;
        s.now_ok <- true;
        r
      end

    let now s = if s.started then Some (now_rat s) else None

    (* Scaled-entry clock advance: the boxed time, if ever needed this
       tick, comes from [now_rat]. *)
    let advance_clock_n s ~now_n =
      let c = N.advance s.clock now_n s.started in
      if c < 0 then
        invalid_step "time went backwards: %a after %a" Rat.pp
          (N.to_rat s.g now_n) Rat.pp (now_rat s);
      if c > 0 then begin
        s.started <- true;
        s.now_ok <- false
      end

    let advance_clock s ~now_n ~now =
      advance_clock_n s ~now_n;
      s.now <- now;
      s.now_ok <- true

    (* ---- audit ------------------------------------------------------ *)

    (* Sanitizer pass (audit mode): re-derive every memoised quantity
       from the placement lists and item columns and compare.
       O(total bins + items seen) per call, so audit runs cost O(n)
       per event where the production path is O(open bins) —
       acceptable for tests/CI, which is what the mode is for. *)
    let audit s =
      flush_views s;
      let time = now s in
      let fail ?bin_id ~check fmt = Audit.fail ?time ?bin_id ~check fmt in
      (* 1. Slot-array structure: slots hold distinct open bins in
         ascending id (= opening) order and agree with the back map. *)
      let in_list = Array.make (max 1 s.b_len) false in
      if s.o_len < 0 || s.o_len > s.b_len then
        fail ~check:"open-index" "slot count %d out of range" s.o_len;
      let last = ref (-1) in
      for i = 0 to s.o_len - 1 do
        let id = s.o_views.(i).Bin.bin_id in
        if not (is_bin s id) then
          fail ~check:"open-index" "slot %d points at unopened bin %d" i id;
        if id <= !last then
          fail ~check:"open-index" ~bin_id:id "slots not in opening order";
        last := id;
        in_list.(id) <- true;
        if s.b_slot.(id) <> i then
          fail ~check:"open-index" ~bin_id:id "slot back-pointer broken"
      done;
      (* 2. Per-bin memoised state from first principles. *)
      let active_total = ref 0 in
      for id = 0 to s.b_len - 1 do
        let is_open = Option.is_none s.b_closed.(id) in
        if is_open && not in_list.(id) then
          fail ~check:"open-index" ~bin_id:id
            "open bin missing from the slot array";
        if (not is_open) && in_list.(id) then
          fail ~check:"open-index" ~bin_id:id
            "closed bin still in the slot array";
        if (not is_open) && s.b_slot.(id) >= 0 then
          fail ~check:"open-index" ~bin_id:id "closed bin keeps a slot";
        let level = ref N.zero and active = ref 0 in
        fold_hist s id
          (fun () p ->
            if live s id p then begin
              level := N.add !level s.i_size_n.(s.p_item.(p));
              incr active
            end)
          ();
        if (not is_open) && !active <> 0 then
          fail ~check:"item-bin" ~bin_id:id
            "closed bin still holds %d active items" !active;
        if is_open && !active = 0 then
          fail ~check:"bin" ~bin_id:id "open bin is empty (should have closed)";
        let expected = if is_open then !level else N.zero in
        if N.compare s.b_level.(id) expected <> 0 then
          fail ~check:"bin" ~bin_id:id
            "memoised level %a but active items sum to %a" Rat.pp
            (N.to_rat s.g s.b_level.(id))
            Rat.pp (N.to_rat s.g expected);
        if s.b_active.(id) <> (if is_open then !active else 0) then
          fail ~check:"bin" ~bin_id:id
            "memoised active count %d but %d items are active"
            s.b_active.(id) !active;
        if N.compare s.b_level.(id) s.b_cap_n.(id) > 0 then
          fail ~check:"bin" ~bin_id:id "level above capacity";
        if
          N.compare s.b_max.(id) s.b_level.(id) < 0
          || N.compare s.b_max.(id) s.b_cap_n.(id) > 0
        then fail ~check:"bin" ~bin_id:id "max level out of range";
        if not (Rat.equal (N.to_rat s.g s.b_cap_n.(id)) s.b_cap.(id)) then
          fail ~check:"store" ~bin_id:id "scaled capacity diverges";
        if not (Rat.equal (N.to_rat s.g s.b_opened_n.(id)) s.b_opened.(id))
        then fail ~check:"store" ~bin_id:id "scaled open time diverges";
        (match s.b_closed.(id) with
        | Some c when not (Rat.equal (N.to_rat s.g s.b_closed_n.(id)) c) ->
            fail ~check:"store" ~bin_id:id "scaled close time diverges"
        | _ -> ());
        if is_open then begin
          active_total := !active_total + !active;
          (* The materialised slot view must agree with a fresh
             projection. *)
          let v = s.o_views.(s.b_slot.(id)) and w = view_of s id in
          if
            v.Bin.bin_id <> w.Bin.bin_id
            || v.Bin.bin_count <> w.Bin.bin_count
            || (not (String.equal v.Bin.bin_tag w.Bin.bin_tag))
            || (not (Rat.equal v.Bin.bin_level w.Bin.bin_level))
            || (not (Rat.equal v.Bin.bin_residual w.Bin.bin_residual))
            || (not (Rat.equal v.Bin.bin_capacity w.Bin.bin_capacity))
            || not (Rat.equal v.Bin.bin_opened w.Bin.bin_opened)
          then
            fail ~check:"bin" ~bin_id:id
              "stale slot view (level %a, memoised %a)" Rat.pp w.Bin.bin_level
              Rat.pp v.Bin.bin_level
        end
      done;
      if !active_total <> s.i_active then
        fail ~check:"item-bin" "%d items active across bins but counter says %d"
          !active_total s.i_active;
      (* 3. Item columns: seen/active counters and bin back-pointers. *)
      let seen = ref 0 and active = ref 0 in
      for i = 0 to s.i_max_seen do
        match s.i_bin.(i) with
        | -2 -> ()
        | -1 -> incr seen
        | b ->
            incr seen;
            incr active;
            if not (is_bin s b) then
              fail ~check:"item-bin" "item %d points at unknown bin %d" i b;
            if Option.is_some s.b_closed.(b) then
              fail ~check:"item-bin" ~bin_id:b "item %d active in a closed bin"
                i;
            let p = s.i_place.(i) in
            if p < 0 || p >= s.p_len || s.p_item.(p) <> i then
              fail ~check:"item-bin" "item %d points at a foreign placement" i
      done;
      if !seen <> s.i_seen then
        fail ~check:"item-bin" "%d items seen but counter says %d" !seen
          s.i_seen;
      if !active <> s.i_active then
        fail ~check:"item-bin" "%d items active but counter says %d" !active
          s.i_active

    let after_event env s = if env.audit then audit s

    (* ---- arrival ---------------------------------------------------- *)

    (* The observers below run only when [env.observed]. *)
    let observe_arrival env s ~now ~size ~item_id ~target ~opened_new =
      (match env.sink with
      | None -> ()
      | Some sk ->
          let emit k = Dbp_obs.Sink.emit sk ~time:now k in
          emit (E.Arrive { item = item_id; size });
          if opened_new then
            emit
              (E.Bin_open
                 {
                   bin = target;
                   tag = s.b_tag.(target);
                   capacity = s.b_cap.(target);
                 });
          emit
            (E.Pack
               {
                 item = item_id;
                 bin = target;
                 level = N.to_rat s.g s.b_level.(target);
                 residual = N.to_rat s.g (residual s target);
               }));
      (match env.metrics with
      | None -> ()
      | Some m ->
          Dbp_obs.Metrics.incr m "arrivals";
          if opened_new then Dbp_obs.Metrics.incr m "bins_opened";
          Dbp_obs.Metrics.observe_rat m "utilisation_at_pack"
            (Rat.div (N.to_rat s.g s.b_level.(target)) s.b_cap.(target));
          fleet_metrics m ~open_now:s.o_len);
      Log.debug (fun m ->
          m "t=%a item %d (size %a) -> bin %d [%s] level %a/%a" Rat.pp now
            item_id Rat.pp size target s.b_tag.(target) Rat.pp
            (N.to_rat s.g s.b_level.(target))
            Rat.pp s.b_cap.(target))

    let open_bin s ~tag ~cap ~cap_n ~now ~now_n =
      let id = s.b_len in
      if id >= Array.length s.b_tag then grow_bins s;
      s.b_tag.(id) <- tag;
      s.b_cap_n.(id) <- cap_n;
      s.b_cap.(id) <- cap;
      s.b_level.(id) <- N.zero;
      s.b_max.(id) <- N.zero;
      s.b_active.(id) <- 0;
      s.b_opened.(id) <- now;
      s.b_closed.(id) <- None;
      s.b_opened_n.(id) <- now_n;
      s.b_hist.(id) <- -1;
      s.b_len <- id + 1;
      open_slot_append s id;
      id

    (* Appends placement [(now, item_id)] to the log and to bin
       [target]'s history. *)
    let log_placement s ~now ~item_id target =
      let p = s.p_len in
      let n = Array.length s.p_item in
      if p >= n then begin
        let m = max 1024 (2 * n) in
        s.p_item <- grow m s.p_item 0;
        s.p_time <- grow m s.p_time Rat.zero;
        s.p_next <- grow m s.p_next (-1)
      end;
      s.p_item.(p) <- item_id;
      s.p_time.(p) <- now;
      s.p_next.(p) <- s.b_hist.(target);
      s.p_len <- p + 1;
      s.i_place.(item_id) <- p;
      s.b_hist.(target) <- p

    (* Makes [item_id] active in open bin [target]. *)
    let occupy s ~size ~size_n ~item_id target =
      N.occupy_at s.b_level s.b_max s.i_size_n target item_id size_n;
      s.b_active.(target) <- s.b_active.(target) + 1;
      mark_dirty s target;
      s.i_bin.(item_id) <- target;
      s.i_size.(item_id) <- size;
      s.i_active <- s.i_active + 1

    (* Places [item_id] into open bin [target]: pure column updates. *)
    let place s ~now ~size ~size_n ~item_id target =
      log_placement s ~now ~item_id target;
      occupy s ~size ~size_n ~item_id target

    (* The commit phase: validates the already-made policy decision and
       mutates the store.  The decision must NOT be re-derived here —
       the policy already ran (and possibly advanced its internal
       state). *)
    let commit env s ~now ~now_n ~size ~size_n ~item_id ~views decision =
      let tok = Dbp_obs.Profile.enter env.profile in
      let target =
        match decision with
        | Policy.Existing id ->
            if not (is_bin s id) then
              invalid_decision "policy chose unknown bin %d" id;
            if Option.is_some s.b_closed.(id) then
              invalid_decision "policy chose closed bin %d" id;
            if not (N.fits_at s.b_level s.b_cap_n id size_n) then
              invalid_decision "item %d does not fit in bin %d" item_id id;
            id
        | Policy.New_bin tag ->
            let cap = env.tag_capacity tag in
            let cap_n =
              match N.of_rat s.g cap with
              | Some c -> c
              | None ->
                  Dbp_obs.Profile.leave env.profile "commit" tok;
                  raise (Off_grid_commit (decision, views))
            in
            if any_fits size views then env.violations <- env.violations + 1;
            if N.compare size_n cap_n > 0 then
              invalid_decision
                "item %d (size %s) exceeds the capacity %s of a new '%s' bin"
                item_id (Rat.to_string size) (Rat.to_string cap) tag;
            open_bin s ~tag ~cap ~cap_n ~now ~now_n
      in
      place s ~now ~size ~size_n ~item_id target;
      Dbp_obs.Profile.leave env.profile "commit" tok;
      let opened_new =
        match decision with Policy.New_bin _ -> true | Policy.Existing _ -> false
      in
      if env.observed then
        observe_arrival env s ~now ~size ~item_id ~target ~opened_new;
      after_event env s;
      target

    let arrive env s ~now ~size ~item_id =
      let now_n = conv s now in
      let size_n = conv s size in
      advance_clock s ~now_n ~now;
      if Rat.sign size <= 0 then invalid_step "item %d has size <= 0" item_id;
      check_item ~what:"" s item_id;
      if s.i_bin.(item_id) <> -2 then invalid_step "item id %d reused" item_id;
      (* Marked seen before the policy runs: an id consumed by a
         rejected decision stays consumed. *)
      mark_seen s item_id;
      let tok = Dbp_obs.Profile.enter env.profile in
      let views = views s in
      Dbp_obs.Profile.leave env.profile "views" tok;
      let tok = Dbp_obs.Profile.enter env.profile in
      let decision =
        env.handlers.Policy.on_arrival ~now ~bins:views ~size ~item_id
      in
      Dbp_obs.Profile.leave env.profile "policy" tok;
      commit env s ~now ~now_n ~size ~size_n ~item_id ~views decision

    (* ---- departure, failure, migration ------------------------------ *)

    let close_bin s id ~now ~now_n =
      N.close_at s.b_level s.b_closed_n id now_n;
      s.b_closed.(id) <- Some now;
      open_slot_remove s id

    let trace_close sk ~now ~bin ~opened =
      Dbp_obs.Sink.emit sk ~time:now
        (E.Bin_close { bin; opened; cost = Rat.sub now opened })

    let observe_departure env s ~now ~item_id ~bin ~closed =
      (match env.sink with
      | None -> ()
      | Some sk ->
          Dbp_obs.Sink.emit sk ~time:now
            (E.Depart
               { item = item_id; bin; held = Rat.sub now (arrival s item_id) });
          if closed then trace_close sk ~now ~bin ~opened:s.b_opened.(bin));
      (match env.metrics with
      | None -> ()
      | Some m ->
          Dbp_obs.Metrics.incr m "departures";
          Dbp_obs.Metrics.observe_rat m "item_held"
            (Rat.sub now (arrival s item_id));
          if closed then close_metrics m ~cost:(Rat.sub now s.b_opened.(bin));
          fleet_metrics m ~open_now:s.o_len);
      Log.debug (fun m ->
          m "t=%a item %d departs bin %d%s" Rat.pp now item_id bin
            (if closed then " (bin closes)" else ""))

    (* The item leaves its bin; the bin closes if it empties.  The
       clock is already advanced when this runs; the boxed time is
       materialised only if a bin closes or someone observes it. *)
    let release env s ~now_n ~item_id =
      let b =
        if item_id >= 0 && item_id < Array.length s.i_bin then s.i_bin.(item_id)
        else -2
      in
      if b < 0 then invalid_step "departure of unknown/inactive item %d" item_id;
      let tok = Dbp_obs.Profile.enter env.profile in
      s.i_bin.(item_id) <- -1;
      s.i_active <- s.i_active - 1;
      let remaining = s.b_active.(b) - 1 in
      s.b_active.(b) <- remaining;
      let closed = remaining = 0 in
      if closed then close_bin s b ~now:(now_rat s) ~now_n
      else begin
        N.vacate_at s.b_level s.i_size_n b item_id;
        mark_dirty s b
      end;
      Dbp_obs.Profile.leave env.profile "commit" tok;
      (* A no-op departure handler needs no views: skip both phases
         entirely (the shared [Policy.no_departure_handler] is
         physically recognisable). *)
      if env.handlers.Policy.on_departure != Policy.no_departure_handler then begin
        let tok = Dbp_obs.Profile.enter env.profile in
        let views = views s in
        Dbp_obs.Profile.leave env.profile "views" tok;
        let tok = Dbp_obs.Profile.enter env.profile in
        env.handlers.Policy.on_departure ~now:(now_rat s) ~bins:views ~item_id;
        Dbp_obs.Profile.leave env.profile "policy" tok
      end;
      if env.observed then
        observe_departure env s ~now:(now_rat s) ~item_id ~bin:b ~closed;
      after_event env s

    let depart env s ~now ~item_id =
      let now_n = conv s now in
      advance_clock s ~now_n ~now;
      release env s ~now_n ~item_id

    let observe_failure env s ~now ~bin_id ~victims =
      (match env.sink with
      | None -> ()
      | Some sk ->
          Dbp_obs.Sink.emit sk ~time:now
            (E.Fail_bin
               {
                 bin = bin_id;
                 victims = List.length victims;
                 lost_level =
                   List.fold_left
                     (fun acc (_, size) -> Rat.add acc size)
                     Rat.zero victims;
               });
          trace_close sk ~now ~bin:bin_id ~opened:s.b_opened.(bin_id));
      (match env.metrics with
      | None -> ()
      | Some m ->
          Dbp_obs.Metrics.incr m "bin_failures";
          Dbp_obs.Metrics.add m "items_evicted" (List.length victims);
          close_metrics m ~cost:(Rat.sub now s.b_opened.(bin_id));
          fleet_metrics m ~open_now:s.o_len);
      Log.debug (fun m ->
          m "t=%a bin %d FAILS, %d items evicted" Rat.pp now bin_id
            (List.length victims))

    let fail_bin env s ~now ~bin_id =
      let now_n = conv s now in
      advance_clock s ~now_n ~now;
      if not (is_bin s bin_id) then invalid_step "fail_bin: unknown bin %d" bin_id;
      if Option.is_some s.b_closed.(bin_id) then
        invalid_step "fail_bin: bin %d is already closed" bin_id;
      (* Oldest placement first, so re-dispatch order is deterministic:
         the fold runs newest first and re-reverses. *)
      let victims =
        fold_hist s bin_id
          (fun acc p ->
            if live s bin_id p then
              let i = s.p_item.(p) in
              (i, s.i_size.(i)) :: acc
            else acc)
          []
      in
      List.iter
        (fun (i, _) ->
          s.i_bin.(i) <- -1;
          s.i_active <- s.i_active - 1)
        victims;
      (* An open bin always holds at least one item, so eviction emptied
         it: the bin is charged exactly for [opened, now]. *)
      s.b_active.(bin_id) <- 0;
      close_bin s bin_id ~now ~now_n;
      (* Departure handlers only observe the fleet, so every eviction
         notification sees the same post-crash views: compute them once
         per fault, not once per victim. *)
      (if env.handlers.Policy.on_departure != Policy.no_departure_handler then
         let views = views s in
         List.iter
           (fun (item_id, _) ->
             env.handlers.Policy.on_departure ~now ~bins:views ~item_id)
           victims);
      if env.observed then observe_failure env s ~now ~bin_id ~victims;
      after_event env s;
      victims

    let observe_migration env s ~now ~item_id ~new_item_id ~src ~dst ~src_closed
        =
      let size = s.i_size.(new_item_id) in
      (match env.sink with
      | None -> ()
      | Some sk ->
          Dbp_obs.Sink.emit sk ~time:now
            (E.Migrate
               { item = item_id; new_item = new_item_id; from_bin = src; to_bin = dst; size });
          if src_closed then trace_close sk ~now ~bin:src ~opened:s.b_opened.(src));
      (match env.metrics with
      | None -> ()
      | Some m ->
          Dbp_obs.Metrics.incr m "migrations";
          Dbp_obs.Metrics.add_rat m "migrated_volume" size;
          if src_closed then close_metrics m ~cost:(Rat.sub now s.b_opened.(src));
          fleet_metrics m ~open_now:s.o_len);
      Log.debug (fun m ->
          m "t=%a item %d (size %a) migrates bin %d -> bin %d as item %d%s"
            Rat.pp now item_id Rat.pp size src dst new_item_id
            (if src_closed then " (source closes)" else ""))

    (* Live migration: the limited-recourse repacking primitive
       (lib/repack).  The active item leaves its bin and re-enters
       [to_bin] at the same instant under a fresh id, so the effective
       instance stays segment-shaped (each id occupies exactly one bin
       over one interval) and [finish]/[Packing.validate] need no new
       cases.  Accounting splits exactly at [now]: if the move empties
       the source it closes and is charged for [opened, now] —
       precisely the bin-seconds a consolidation reclaims.  O(1), no
       policy callback (migration is the repacker's decision; the
       policy observes the new fleet through its next views). *)
    let migrate env s ~now ~item_id ~to_bin ~new_item_id =
      let now_n = conv s now in
      advance_clock s ~now_n ~now;
      let src =
        if item_id >= 0 && item_id < Array.length s.i_bin then s.i_bin.(item_id)
        else -2
      in
      if src < 0 then invalid_step "migrate: unknown/inactive item %d" item_id;
      if not (is_bin s to_bin) then
        invalid_step "migrate: unknown destination bin %d" to_bin;
      if to_bin = src then
        invalid_step "migrate: item %d already lives in bin %d" item_id to_bin;
      if Option.is_some s.b_closed.(to_bin) then
        invalid_step "migrate: destination bin %d is closed" to_bin;
      let size_n = s.i_size_n.(item_id) and size = s.i_size.(item_id) in
      if not (N.fits_at s.b_level s.b_cap_n to_bin size_n) then
        invalid_step
          "migrate: item %d (size %a) does not fit bin %d (residual %a)" item_id
          Rat.pp size to_bin Rat.pp
          (N.to_rat s.g (residual s to_bin));
      check_item ~what:"migrate: " s new_item_id;
      if s.i_bin.(new_item_id) <> -2 then
        invalid_step "migrate: item id %d reused" new_item_id;
      let tok = Dbp_obs.Profile.enter env.profile in
      (* Source side. *)
      s.i_bin.(item_id) <- -1;
      s.i_active <- s.i_active - 1;
      let remaining = s.b_active.(src) - 1 in
      s.b_active.(src) <- remaining;
      let src_closed = remaining = 0 in
      if src_closed then close_bin s src ~now ~now_n
      else begin
        N.vacate_at s.b_level s.i_size_n src item_id;
        mark_dirty s src
      end;
      (* Destination side, under the fresh id. *)
      mark_seen s new_item_id;
      place s ~now ~size ~size_n ~item_id:new_item_id to_bin;
      Dbp_obs.Profile.leave env.profile "commit" tok;
      if env.observed then
        observe_migration env s ~now ~item_id ~new_item_id ~src ~dst:to_bin
          ~src_closed;
      after_event env s;
      src_closed

    (* ---- queries ---------------------------------------------------- *)

    let bin_of_item s item_id =
      if item_id >= 0 && item_id < Array.length s.i_bin && s.i_bin.(item_id) >= 0
      then Some s.i_bin.(item_id)
      else None

    let active_items_in s bin_id =
      if not (is_bin s bin_id) then []
      else
        (* Newest placement first. *)
        List.filter_map
          (fun p ->
            if live s bin_id p then
              let i = s.p_item.(p) in
              Some (i, s.i_size.(i))
            else None)
          (List.rev (hist s bin_id))

    let level_of s bin_id =
      if is_bin s bin_id && Option.is_none s.b_closed.(bin_id) then
        Some (N.to_rat s.g s.b_level.(bin_id))
      else None

    (* The per-bin records of a finished run, in id (= opening) order. *)
    let records s ~instance =
      if s.i_active <> 0 then
        invalid_step "finish with %d items still active" s.i_active;
      let n = Instance.size instance in
      if s.i_seen <> n then
        invalid_step "instance has %d items but %d were stepped" n s.i_seen;
      Array.init s.b_len (fun id ->
          let closed =
            match s.b_closed.(id) with
            | Some c -> c
            | None -> invalid_step "bin %d never closed" id
          in
          let hist = hist s id in
          {
            Packing.bin_id = id;
            tag = s.b_tag.(id);
            capacity = s.b_cap.(id);
            opened = s.b_opened.(id);
            closed;
            item_ids = List.map (fun p -> s.p_item.(p)) hist;
            placements = List.map (fun p -> (s.p_time.(p), s.p_item.(p))) hist;
            max_level = N.to_rat s.g s.b_max.(id);
          })

    (* ---- engine image ----------------------------------------------- *)

    (* Every field either is a cached exact box or converts exactly, so
       the image is the same whichever instance produced it. *)
    let bins_image s =
      List.init s.b_len (fun id ->
          let hist = hist s id in
          {
            Frozen.b_id = id;
            b_tag = s.b_tag.(id);
            b_capacity = s.b_cap.(id);
            b_opened = s.b_opened.(id);
            b_closed = s.b_closed.(id);
            b_max_level = N.to_rat s.g s.b_max.(id);
            b_placements = List.map (fun p -> (s.p_time.(p), s.p_item.(p))) hist;
            b_active =
              List.filter_map
                (fun p ->
                  if live s id p then
                    let i = s.p_item.(p) in
                    Some (i, s.i_size.(i))
                  else None)
                hist;
          })

    (* Rebuilds a store from an image, re-deriving levels, slots and
       item tracking rather than trusting them.  An id may appear in
       several placement histories (the engine that froze the image
       recycled it); only its latest placement can be active.
       @raise Invalid_step on an inconsistent image. *)
    let of_image g ~clock (bins : Frozen.bin list) =
      let s = create g in
      let conv what r =
        match N.of_rat g r with
        | Some v -> v
        | None -> invalid_step "thaw: %s %a is off the engine's grid" what Rat.pp r
      in
      Option.iter (fun c -> advance_clock s ~now_n:(conv "clock" c) ~now:c) clock;
      (* Pass 1: open every bin and log its history, so each id's
         latest placement is known before any item is re-admitted. *)
      let firsts =
        List.mapi
          (fun expected_id (fb : Frozen.bin) ->
            let id = fb.Frozen.b_id in
            if id <> expected_id then
              invalid_step "thaw: bin ids not dense (found %d, expected %d)" id
                expected_id;
            if Rat.sign fb.Frozen.b_capacity <= 0 then
              invalid_step "thaw: bin %d has capacity <= 0" id;
            (match (fb.Frozen.b_closed, fb.Frozen.b_active) with
            | None, [] -> invalid_step "thaw: open bin %d has no active items" id
            | Some _, _ :: _ ->
                invalid_step "thaw: closed bin %d still has active items" id
            | _ -> ());
            let now = fb.Frozen.b_opened in
            ignore
              (open_bin s ~tag:fb.Frozen.b_tag ~cap:fb.Frozen.b_capacity
                 ~cap_n:(conv "capacity" fb.Frozen.b_capacity)
                 ~now ~now_n:(conv "open time" now));
            let first = s.p_len in
            List.iter
              (fun (time, item_id) ->
                check_item ~what:"thaw: " s item_id;
                if s.i_bin.(item_id) = -2 then mark_seen s item_id;
                log_placement s ~now:time ~item_id id)
              fb.Frozen.b_placements;
            first)
          bins
      in
      (* Pass 2: re-admit the active items, set the maxima (which cover
         departed items too) and close the closed bins. *)
      List.iter2
        (fun (fb : Frozen.bin) first ->
          let id = fb.Frozen.b_id in
          List.iter
            (fun (item_id, size) ->
              if Rat.sign size <= 0 then
                invalid_step "thaw: active item %d has size <= 0" item_id;
              let p =
                if item_id >= 0 && item_id < Array.length s.i_bin then
                  s.i_place.(item_id)
                else -1
              in
              if p < first || p >= first + List.length fb.Frozen.b_placements
              then
                invalid_step
                  "thaw: active item %d is not last placed in bin %d" item_id id;
              if s.i_bin.(item_id) <> -1 then
                invalid_step "thaw: item %d active twice in bin %d" item_id id;
              let size_n = conv "size" size in
              if not (N.fits_at s.b_level s.b_cap_n id size_n) then
                invalid_step "thaw: bin %d over capacity" id;
              occupy s ~size ~size_n ~item_id id)
            fb.Frozen.b_active;
          s.b_max.(id) <- conv "max level" fb.Frozen.b_max_level;
          match fb.Frozen.b_closed with
          | None -> ()
          | Some c -> close_bin s id ~now:c ~now_n:(conv "close time" c))
        bins firsts;
      flush_views s;
      s

    (* ---- test hook -------------------------------------------------- *)

    let corrupt s = function
      | Bump_level { bin; by } ->
          s.b_level.(bin) <- N.add s.b_level.(bin) (conv s by)
      | Stale_view bin ->
          flush_views s;
          let slot = s.b_slot.(bin) in
          s.o_views.(slot) <- { (s.o_views.(slot)) with Bin.bin_level = Rat.zero }
      | Close_flag bin -> s.b_closed.(bin) <- Some Rat.zero
      | Untrack_item item ->
          (* Drop the item from its bin consistently (level, count and
             view all patched up), so only the item totals disagree. *)
          let b = s.i_bin.(item) in
          s.i_bin.(item) <- -1;
          N.vacate_at s.b_level s.i_size_n b item;
          s.b_active.(b) <- s.b_active.(b) - 1;
          refresh_slot s b
  end

  module Fx = Store (struct
    type t = int
    type grid = Fixed.scale

    let zero = 0
    let of_rat = Fixed.of_rat
    let to_rat = Fixed.to_rat

    (* [of_rat] bounds every admitted value by max_int/4, so a sum or
       difference of two admitted values cannot wrap. *)
    let add = ( + )
    let sub = ( - )
    let compare = Int.compare
    let advance (clock : int array) now started =
      let c = if started then Int.compare now clock.(0) else 1 in
      if c > 0 then clock.(0) <- now;
      c

    let fits_at (levels : int array) caps id size = levels.(id) + size <= caps.(id)

    let occupy_at (levels : int array) (maxes : int array) (sizes : int array)
        bin item size =
      sizes.(item) <- size;
      let l = levels.(bin) + size in
      levels.(bin) <- l;
      if l > maxes.(bin) then maxes.(bin) <- l

    let vacate_at (levels : int array) (sizes : int array) bin item =
      levels.(bin) <- levels.(bin) - sizes.(item)

    let close_at (levels : int array) (closed : int array) bin now =
      levels.(bin) <- 0;
      closed.(bin) <- now

    let view g id tag cap opened (cap_n : int) level count =
      {
        Bin.bin_id = id;
        bin_tag = tag;
        bin_capacity = cap;
        bin_level = Fixed.to_rat g level;
        bin_residual = Fixed.to_rat g (cap_n - level);
        bin_opened = opened;
        bin_count = count;
      }
  end)

  module Rq = Store (struct
    type t = Rat.t
    type grid = unit

    let zero = Rat.zero
    let of_rat () r = Some r
    let to_rat () r = r
    let add = Rat.add
    let sub = Rat.sub
    let compare = Rat.compare
    let advance clock now started =
      let c = if started then Rat.compare now clock.(0) else 1 in
      if c > 0 then clock.(0) <- now;
      c

    let fits_at levels caps id size = Rat.(Rat.add levels.(id) size <= caps.(id))

    let occupy_at levels maxes sizes bin item size =
      sizes.(item) <- size;
      let l = Rat.add levels.(bin) size in
      levels.(bin) <- l;
      if Rat.(l > maxes.(bin)) then maxes.(bin) <- l

    let vacate_at levels sizes bin item =
      levels.(bin) <- Rat.sub levels.(bin) sizes.(item)

    let close_at levels closed bin now =
      levels.(bin) <- Rat.zero;
      closed.(bin) <- now

    let view () id tag cap opened cap_n level count =
      {
        Bin.bin_id = id;
        bin_tag = tag;
        bin_capacity = cap;
        bin_level = level;
        bin_residual = Rat.sub cap_n level;
        bin_opened = opened;
        bin_count = count;
      }
  end)

  type track = Fixed of Fx.t | Exact of Rq.t
  type t = { env : env; mutable track : track }

  let make_env ~audit ?sink ?metrics ?profile ?tag_capacity ~policy ~capacity
      () =
    if Rat.sign capacity <= 0 then
      invalid_arg "Online.create: capacity must be positive";
    {
      capacity;
      tag_capacity =
        (match tag_capacity with Some f -> f | None -> fun _ -> capacity);
      handlers = policy.Policy.spawn ~capacity;
      audit;
      sink;
      metrics;
      profile;
      (* Fixed at creation: a log level raised mid-run takes effect
         from the next engine. *)
      observed =
        Option.is_some sink || Option.is_some metrics
        || Logs.Src.level log_src = Some Logs.Debug;
      violations = 0;
    }

  (* [items] presizes the item columns (see [Store.create]). *)
  let create_sized ~items ?(audit = false) ?sink ?metrics ?profile ?grid
      ?tag_capacity ~policy ~capacity () =
    let env =
      make_env ~audit ?sink ?metrics ?profile ?tag_capacity ~policy ~capacity ()
    in
    let track =
      match grid with
      | Some g when Fixed.fits g capacity -> Fixed (Fx.create ~items g)
      | _ -> Exact (Rq.create ~items ())
    in
    { env; track }

  let create = create_sized ~items:0

  (* Degrade: rebuild the [Fx] store's image as an [Rq] store and
     continue there.  Every conversion is an exact [to_rat] of an
     on-grid value, so the switch is invisible: packings, traces and
     snapshots are bit-identical to a run that was exact from the
     start.  The image does not say which ids are seen: ids seen but
     never placed (the arrival being committed, or one a refused
     decision consumed) and ids recycled since their placement are
     carried over separately. *)
  let degrade t (f : Fx.t) =
    let r = Rq.of_image () ~clock:(Fx.now f) (Fx.bins_image f) in
    for i = 0 to f.Fx.i_max_seen do
      match f.Fx.i_bin.(i) with
      | -2 ->
          if i < Array.length r.Rq.i_bin && r.Rq.i_bin.(i) = -1 then
            Rq.recycle r i
      | _ ->
          Rq.check_item ~what:"" r i;
          if r.Rq.i_bin.(i) = -2 then Rq.mark_seen r i
    done;
    t.track <- Exact r;
    Rq.after_event t.env r;
    r

  let arrive t ~now ~size ~item_id =
    match t.track with
    | Exact r -> Rq.arrive t.env r ~now ~size ~item_id
    | Fixed f -> (
        match Fx.arrive t.env f ~now ~size ~item_id with
        | bin -> bin
        | exception Off_grid -> Rq.arrive t.env (degrade t f) ~now ~size ~item_id
        | exception Off_grid_commit (decision, views) ->
            Rq.commit t.env (degrade t f) ~now ~now_n:now ~size ~size_n:size
              ~item_id ~views decision)

  let depart t ~now ~item_id =
    match t.track with
    | Exact r -> Rq.depart t.env r ~now ~item_id
    | Fixed f -> (
        match Fx.depart t.env f ~now ~item_id with
        | () -> ()
        | exception Off_grid -> Rq.depart t.env (degrade t f) ~now ~item_id)

  (* Scaled-entry departure for the replay loop: the caller already
     knows the on-grid time, so the item record is never touched and
     no rational is built unless the event closes a bin.  [g] is the
     run's grid, needed only if the track degraded mid-run. *)
  let depart_scaled t g ~now_s ~item_id =
    match t.track with
    | Exact r -> Rq.depart t.env r ~now:(Fixed.to_rat g now_s) ~item_id
    | Fixed f ->
        Fx.advance_clock_n f ~now_n:now_s;
        Fx.release t.env f ~now_n:now_s ~item_id

  let fail_bin t ~now ~bin_id =
    match t.track with
    | Exact r -> Rq.fail_bin t.env r ~now ~bin_id
    | Fixed f -> (
        match Fx.fail_bin t.env f ~now ~bin_id with
        | victims -> victims
        | exception Off_grid -> Rq.fail_bin t.env (degrade t f) ~now ~bin_id)

  let migrate t ~now ~item_id ~to_bin ~new_item_id =
    match t.track with
    | Exact r -> Rq.migrate t.env r ~now ~item_id ~to_bin ~new_item_id
    | Fixed f -> (
        match Fx.migrate t.env f ~now ~item_id ~to_bin ~new_item_id with
        | closed -> closed
        | exception Off_grid ->
            Rq.migrate t.env (degrade t f) ~now ~item_id ~to_bin ~new_item_id)

  let recycle t ~item_id =
    match t.track with
    | Fixed f -> Fx.recycle f item_id
    | Exact r -> Rq.recycle r item_id

  let now t = match t.track with Fixed f -> Fx.now f | Exact r -> Rq.now r
  let open_bins t = match t.track with Fixed f -> Fx.views f | Exact r -> Rq.views r

  let bin_of_item t item_id =
    match t.track with
    | Fixed f -> Fx.bin_of_item f item_id
    | Exact r -> Rq.bin_of_item r item_id

  let active_items_in t bin_id =
    match t.track with
    | Fixed f -> Fx.active_items_in f bin_id
    | Exact r -> Rq.active_items_in r bin_id

  let level_of t bin_id =
    match t.track with
    | Fixed f -> Fx.level_of f bin_id
    | Exact r -> Rq.level_of r bin_id

  let audit t =
    match t.track with Fixed f -> Fx.audit f | Exact r -> Rq.audit r

  let corrupt_for_test t c =
    match t.track with Fixed f -> Fx.corrupt f c | Exact r -> Rq.corrupt r c

  (* Timeline and exact total cost from the per-bin records. *)
  let timeline_and_cost_of_records records =
    let timeline =
      Array.to_list records
      |> List.concat_map (fun (b : Packing.bin_record) ->
             [ (b.opened, 1); (b.closed, -1) ])
      |> Step_fn.of_deltas
    in
    let total_cost =
      Array.fold_left
        (fun acc (b : Packing.bin_record) ->
          Rat.add acc (Rat.sub b.closed b.opened))
        Rat.zero records
    in
    (timeline, total_cost)

  (* The same two results straight off the scaled lifecycle times:
     usage periods sum as plain ints, and the timeline's breakpoints
     come from a radix sort of [(time_s << 1) | close-bit] keys
     instead of a rational comparison sort.  Every value converts
     exactly, so the results are bit-identical to
     [timeline_and_cost_of_records]; [None] (negative times or an
     overflowing sum) sends the caller there. *)
  let fixed_timeline_and_cost (f : Fx.t) =
    let m = f.Fx.b_len in
    if m = 0 then Some (Step_fn.empty, Rat.zero)
    else begin
      let keys = Array.make (2 * m) 0 in
      let total = ref 0 in
      match
        for id = 0 to m - 1 do
          let o = f.Fx.b_opened_n.(id) and c = f.Fx.b_closed_n.(id) in
          if o < 0 || c < 0 then raise Exit;
          keys.(2 * id) <- o lsl 1;
          keys.((2 * id) + 1) <- (c lsl 1) lor 1;
          total := Fixed.add !total (c - o)
        done
      with
      | exception Exit -> None
      | exception Fixed.Overflow -> None
      | () ->
          let keys = radix_sort_pos keys in
          let n2 = Array.length keys in
          let points = ref [] in
          let v = ref 0 in
          let i = ref 0 in
          while !i < n2 do
            let time = keys.(!i) lsr 1 in
            let d = ref 0 in
            while !i < n2 && keys.(!i) lsr 1 = time do
              d := !d + (if keys.(!i) land 1 = 0 then 1 else -1);
              incr i
            done;
            v := !v + !d;
            points := (Fixed.to_rat f.Fx.g time, !v) :: !points
          done;
          Some
            ( Step_fn.of_breakpoints (List.rev !points),
              Fixed.to_rat f.Fx.g !total )
    end

  let finish t ~instance =
    let records, (timeline, total_cost) =
      match t.track with
      | Fixed f ->
          let records = Fx.records f ~instance in
          ( records,
            match fixed_timeline_and_cost f with
            | Some tc -> tc
            | None -> timeline_and_cost_of_records records )
      | Exact r ->
          let records = Rq.records r ~instance in
          (records, timeline_and_cost_of_records records)
    in
    let n = Instance.size instance in
    let assignment = Array.make n (-1) in
    Array.iter
      (fun (b : Packing.bin_record) ->
        List.iter
          (fun item_id ->
            if item_id < 0 || item_id >= n then
              invalid_step "item id %d outside instance" item_id;
            assignment.(item_id) <- b.bin_id)
          b.item_ids)
      records;
    Array.iteri
      (fun i bin_id ->
        if bin_id < 0 then invalid_step "item %d never packed" i)
      assignment;
    let packing =
      {
        Packing.instance;
        policy_name = "";
        bins = records;
        assignment;
        timeline;
        total_cost;
        max_bins = Step_fn.max_value timeline;
        any_fit_violations = t.env.violations;
      }
    in
    if t.env.audit then Audit.check_packing packing;
    packing

  (* ---- checkpoint/restore ------------------------------------------- *)

  let freeze t : Frozen.t =
    let policy_state =
      match t.env.handlers.Policy.persistence with
      | Policy.Stateless -> None
      | Policy.Persistent io -> Some (io.Policy.save ())
      | Policy.Volatile ->
          invalid_step
            "freeze: the policy's internal state is volatile (no \
             save/load support), this run cannot checkpoint"
    in
    {
      Frozen.s_capacity = t.env.capacity;
      s_clock = now t;
      s_violations = t.env.violations;
      s_bins =
        (match t.track with
        | Fixed f -> Fx.bins_image f
        | Exact r -> Rq.bins_image r);
      s_policy_state = policy_state;
    }

  let thaw ?(audit = false) ?sink ?metrics ?profile ?tag_capacity ~policy
      (frozen : Frozen.t) =
    let env =
      make_env ~audit ?sink ?metrics ?profile ?tag_capacity ~policy
        ~capacity:frozen.Frozen.s_capacity ()
    in
    (match (env.handlers.Policy.persistence, frozen.Frozen.s_policy_state) with
    | Policy.Stateless, None -> ()
    | Policy.Persistent io, Some blob -> io.Policy.load blob
    | Policy.Persistent _, None ->
        invalid_step
          "thaw: snapshot carries no state for stateful policy %s"
          policy.Policy.name
    | Policy.Stateless, Some _ ->
        invalid_step "thaw: snapshot carries state but policy %s is stateless"
          policy.Policy.name
    | Policy.Volatile, _ ->
        invalid_step "thaw: policy %s has volatile (unrestorable) state"
          policy.Policy.name);
    let r =
      Rq.of_image () ~clock:frozen.Frozen.s_clock frozen.Frozen.s_bins
    in
    env.violations <- frozen.Frozen.s_violations;
    (* Always re-audit the rebuilt state: thaw is rare, corruption
       expensive. *)
    Rq.audit r;
    { env; track = Exact r }

  let track_name t = match t.track with Fixed _ -> "fixed" | Exact _ -> "exact"
end

(* The run's common grid denominator: the lcm of every size/time
   denominator in the instance (capacity included), verified to admit
   every value within [Fixed.bound].  [None] means some value is off
   any affordable grid and the run must stay exact. *)
let grid_of_instance instance =
  let items = Instance.items instance in
  let add acc r = match acc with None -> None | Some s -> Fixed.including s r in
  let scale =
    Array.fold_left
      (fun acc (r : Item.t) ->
        add (add (add acc r.Item.size) r.Item.arrival) r.Item.departure)
      (add (Some Fixed.unit) (Instance.capacity instance))
      items
  in
  match scale with
  | None -> None
  | Some s ->
      let ok =
        Fixed.fits s (Instance.capacity instance)
        && Array.for_all
             (fun (r : Item.t) ->
               Fixed.fits s r.Item.size && Fixed.fits s r.Item.arrival
               && Fixed.fits s r.Item.departure)
             items
      in
      if ok then Some s else None

(* Streaming drivers (lib/serve) pick a grid by denominator up front;
   keeping the constructor here keeps Fixed confined (lint R7). *)
let grid_of_den = Fixed.scale_of_den

let apply_event online (e : Event.t) =
  match e.kind with
  | Event.Arrival ->
      ignore
        (Online.arrive online ~now:e.time ~size:e.item.Item.size
           ~item_id:e.item.Item.id)
  | Event.Departure -> Online.depart online ~now:e.time ~item_id:e.item.Item.id

let run ?audit ?sink ?metrics ?profile ?grid ?tag_capacity ?checkpoint_every
    ?on_checkpoint ~policy instance =
  let audit =
    (* Default from the environment so [DBP_AUDIT=1 dune runtest]
       audits the whole suite without touching any call site. *)
    match audit with Some b -> b | None -> Audit.enabled_from_env ()
  in
  (match checkpoint_every with
  | Some k when k <= 0 -> invalid_arg "Simulator.run: checkpoint_every <= 0"
  | _ -> ());
  let grid = match grid with Some g -> g | None -> grid_of_instance instance in
  (* Instance ids are 0 .. n-1 and each is placed once, so the item
     columns and the placement log never grow. *)
  let online =
    Online.create_sized ~items:(Instance.size instance) ~audit ?sink ?metrics
      ?profile ?grid ?tag_capacity ~policy
      ~capacity:(Instance.capacity instance) ()
  in
  let hook_after i =
    match (checkpoint_every, on_checkpoint) with
    | Some k, Some hook when (i + 1) mod k = 0 -> hook ~events_done:(i + 1) online
    | _ -> ()
  in
  (* Replay order as integer keys: [(time_s << 25) | (kind << 24) | id]
     with departures' kind bit 0 — integer order is exactly
     [Event.compare]'s (time, departures first, then item id; ids are
     unique), so the radix sort replaces both the event-record
     allocation and the comparison sort.  Only valid when every id can
     index a dense array and every time is an on-grid scaled integer
     small enough to keep the key positive; anything else replays the
     classic event array. *)
  let fast_keys () =
    match grid with
    | None -> None
    | Some g ->
        let items = Instance.items instance in
        let n = Array.length items in
        if n = 0 then None
        else
          let max_id =
            Array.fold_left (fun m (r : Item.t) -> max m r.Item.id) (-1) items
          in
          if max_id > max_fast_item || max_id >= (2 * n) + 1024 then None
          else begin
            let by_id = Array.make (max_id + 1) items.(0) in
            let seen = Array.make (max_id + 1) false in
            let keys = Array.make (2 * n) 0 in
            let lim = event_key_time_limit in
            match
              Array.iteri
                (fun i (r : Item.t) ->
                  if r.Item.id < 0 || seen.(r.Item.id) then raise Exit;
                  match
                    (Fixed.of_rat g r.Item.arrival, Fixed.of_rat g r.Item.departure)
                  with
                  | Some a, Some d when a >= 0 && d >= 0 && a < lim && d < lim ->
                      seen.(r.Item.id) <- true;
                      by_id.(r.Item.id) <- r;
                      keys.(2 * i) <-
                        pack_event_key ~time_s:a ~arrival:true ~id:r.Item.id;
                      keys.((2 * i) + 1) <-
                        pack_event_key ~time_s:d ~arrival:false ~id:r.Item.id
                  | _ -> raise Exit)
                items
            with
            | () -> Some (g, radix_sort_pos keys, by_id)
            | exception Exit -> None
          end
  in
  (match fast_keys () with
  | Some (g, keys, by_id) ->
      Array.iteri
        (fun i k ->
          let id = k land event_key_id_mask in
          (if k land event_key_kind_bit <> 0 then
             let r = by_id.(id) in
             ignore
               (Online.arrive online ~now:r.Item.arrival ~size:r.Item.size
                  ~item_id:id)
           else
             (* The key already encodes the on-grid departure time, so
                skip the [by_id] load entirely. *)
             Online.depart_scaled online g
               ~now_s:(k lsr event_key_time_shift) ~item_id:id);
          hook_after i)
        keys
  | None ->
      Array.iteri
        (fun i e ->
          apply_event online e;
          hook_after i)
        (Event.sorted_array_of_instance instance));
  let packing = Online.finish online ~instance in
  { packing with Packing.policy_name = policy.Policy.name }
