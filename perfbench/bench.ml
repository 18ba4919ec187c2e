(* The dbp benchmark: one workload per run, seeded, timed, checked.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Builds the workload's inputs from the seed, measures for about S
   seconds, checks every output, and prints one JSON object as its
   last line: end-to-end metrics with --trace 0, per-layer metrics
   (from a separate traced run of the same stages) with --trace 1.
   See perfbench/README.md for the workloads and metrics.

     bench.exe --self-test

   runs every workload at a tiny size in both modes, checks that the
   gate passes and every metric has a unit and a value, and checks
   that the gate trips when fed a wrong expectation.  run.py wraps it
   and compares the printed metric names with BENCHMARK.json. *)

open Dbp_num
open Dbp_core
module Spec = Dbp_workload.Spec
module Serve = Dbp_serve.Serve
module Fleet = Dbp_serve.Serve.Fleet
module Router = Dbp_serve.Router
module Pool = Dbp_serve.Shard_pool
module TE = Dbp_obs.Trace_event
module Profile = Dbp_obs.Profile

let now_ns = Tracer.now_ns
let secs ns = float_of_int ns /. 1e9

(* ---- workloads -------------------------------------------------------- *)

type kind = Engine | Wire | Failover

type workload = {
  name : string;
  kind : kind;
  shape : Spec.t;  (** Everything but the item count. *)
  items : seconds:float -> int;
}

(* Offered load on serve-wire, events per second, and the share of
   --seconds its stream lasts. *)
let wire_rate = 10_000.0
let wire_share = 0.55

(* Open-loop generator lag beyond this p99 makes a serve-wire run's
   latency figures suspect; such a run is flagged. *)
let gen_lag_bound_ms = 2.0

let many_shape =
  {
    Spec.default with
    sizes = Spec.Uniform_sizes { lo = 0.02; hi = 0.6 };
    durations = Spec.Uniform_durations { lo = 100.0; hi = 180.0 };
    arrivals = Spec.Poisson { rate = 50.0 };
    min_duration = 1.0;
    max_duration = 1000.0;
    quantum = 1000;
  }

(* Mostly small sessions (shard 1 under size-class routing) plus one
   in 25 above half a server (shard 0, alone in its bin). *)
let failover_shape =
  let r n = Rat.make n 1000 in
  {
    Spec.default with
    sizes =
      Spec.Discrete_sizes
        [ (r 10, 0.24); (r 20, 0.24); (r 30, 0.24); (r 50, 0.24); (r 600, 0.04) ];
    durations = Spec.Uniform_durations { lo = 50.0; hi = 150.0 };
    arrivals = Spec.Poisson { rate = 100.0 };
    min_duration = 1.0;
    max_duration = 1000.0;
    quantum = 1000;
  }

let workloads =
  [
    { name = "engine-fewbins"; kind = Engine; shape = Spec.default; items = (fun ~seconds:_ -> 150_000) };
    { name = "engine-manybins"; kind = Engine; shape = many_shape; items = (fun ~seconds:_ -> 30_000) };
    {
      name = "serve-wire";
      kind = Wire;
      shape = { Spec.default with quantum = 1000 };
      (* Two events per item. *)
      items = (fun ~seconds -> int_of_float (wire_rate *. wire_share *. seconds /. 2.0));
    };
    { name = "fleet-failover"; kind = Failover; shape = failover_shape; items = (fun ~seconds:_ -> 60_000) };
  ]

let policies = [ ("ff", "first-fit"); ("bf", "best-fit"); ("mff", "mff") ]

let policy_of name =
  match Algorithms.find name with
  | Some p -> p
  | None -> failwith ("unknown policy " ^ name)

(* The fleet every serve stage runs: 2 shards of First Fit, MFF's
   large/small split as size-class routing, grid 1/1000, unlimited
   migration budget. *)
let fleet_config () =
  { (Serve.default_config ()) with Serve.shards = 2; grid_den = Some 1000 }

(* ---- correctness gate ------------------------------------------------- *)

type gate = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  tamper : bool;
      (** Self-test only: every stage expects one arrival more than
          the stream holds, so the gate must trip. *)
}

let fail gate n msg =
  gate.failed <- gate.failed + n;
  gate.notes <- msg :: gate.notes

let check gate cond msg = if not cond then fail gate 1 msg

let expected_items gate inst =
  Instance.size inst + if gate.tamper then 1 else 0

(* Counts one stage's arrivals as attempted and every arrival without
   exactly one placement as failed. *)
let check_placements gate ~stage ~expected (placed : int array) ~is_arrival =
  gate.attempted <- gate.attempted + expected;
  let ok = ref 0 and bad = ref 0 in
  Array.iteri
    (fun i c ->
      if is_arrival i then if c = 1 then incr ok else incr bad)
    placed;
  if !bad > 0 then fail gate !bad (Printf.sprintf "%s: %d arrivals without exactly one placement" stage !bad);
  if !ok + !bad <> expected then
    fail gate
      (abs (expected - !ok - !bad))
      (Printf.sprintf "%s: %d arrivals in the stream, %d expected" stage (!ok + !bad) expected)

(* ---- metrics ---------------------------------------------------------- *)

type metrics = { mutable rows : (string * float * string) list }

let put m name unit v = m.rows <- (name, v, unit) :: m.rows

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = q *. float_of_int (n - 1) in
    let i = int_of_float x in
    let f = x -. float_of_int i in
    if i + 1 < n then (sorted.(i) *. (1.0 -. f)) +. (sorted.(i + 1) *. f) else sorted.(i)

let sorted_of a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a = quantile (sorted_of a) 0.5

(* The [q]-quantile of a latency sample in stream order, as the median
   of per-window quantiles over windows of [latency_window] (at least
   20 samples beyond a window's p99), when there are three windows or
   more; a plain quantile otherwise.  One stall then moves one window,
   not the figure. *)
let latency_window = 2_000

(* The [q]-quantile of each whole window of [w] samples of [a]. *)
let window_quantiles w q a =
  Array.init (Array.length a / w) (fun i -> quantile (sorted_of (Array.sub a (i * w) w)) q)

let tail q a =
  let w = latency_window in
  if Array.length a < 3 * w then quantile (sorted_of a) q else median (window_quantiles w q a)

(* serve-wire's [q]-quantile: the lower quartile, over windows of
   [quiet_window] arrivals in send order (0.2 s of the stream), of each
   window's quantile, when there are four windows or more.  The stream
   is steady, so its windows are alike but for stalls of the shared
   host (vCPU steal, a domain descheduled while the others wait for
   it), which come in bursts that can cover half a run: the median
   window then measures the host.  The stalls stay visible in
   client.place_p99_us, which pools every arrival. *)
let quiet_window = 1_000

let quiet q a =
  let w = quiet_window in
  if Array.length a < 4 * w then quantile (sorted_of a) q
  else quantile (sorted_of (window_quantiles w q a)) 0.25

let peak_mem_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> nan
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB"
                (fun kb -> float_of_int kb /. 1024.0)
            else go ()
      in
      go ()

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- engine stage: Simulator.run ---------------------------------------- *)

let check_packing gate ~tag inst (p : Packing.t) =
  (match Packing.validate p with
  | Ok () -> ()
  | Error e -> fail gate 1 (Printf.sprintf "engine %s: packing invalid: %s" tag e));
  if tag <> "mff" then check gate (Packing.is_any_fit p) (Printf.sprintf "engine %s: not Any Fit" tag);
  let expected = expected_items gate inst in
  gate.attempted <- gate.attempted + expected;
  let packed = Array.length p.Packing.assignment in
  if packed <> expected then
    fail gate (abs (expected - packed))
      (Printf.sprintf "engine %s: %d items packed, %d expected" tag packed expected)

(* One timed Simulator.run; returns its wall seconds.  The first run of
   each policy passes the gate and records its cost in [costs]; every
   later run must reproduce that cost exactly. *)
let engine_run gate inst costs (tag, name) =
  let policy = policy_of name in
  let t0 = now_ns () in
  let p = Simulator.run ~audit:false ~policy inst in
  let wall = secs (now_ns () - t0) in
  (match Hashtbl.find_opt costs tag with
  | None ->
      check_packing gate ~tag inst p;
      Hashtbl.replace costs tag p.Packing.total_cost
  | Some c ->
      check gate (Rat.equal c p.Packing.total_cost)
        (Printf.sprintf "engine %s: cost differs between runs" tag));
  wall

(* ---- stepping stage: Simulator.Online + apply_event -------------------- *)

type step_out = {
  s_lat_us : float array;  (** Per arrival, in stream order. *)
  s_cost : Rat.t;
  s_open_mean : float;
  s_open_max : int;
  s_exact_events : int;
}

(* Replays the instance one event at a time, timing every arrival:
   the engine's own placement latency.  Open bins are sampled every
   [sample] events. *)
let step_stage ?tr ~parent inst ~policy =
  let events = Event.sorted_array_of_instance inst in
  let eng =
    Simulator.Online.create ?grid:(Simulator.grid_of_instance inst) ~policy
      ~capacity:(Instance.capacity inst) ()
  in
  let lat = Array.make (Instance.size inst) 0.0 in
  let k = ref 0 in
  let sample = 512 in
  let open_sum = ref 0 and open_n = ref 0 and open_max = ref 0 in
  let exact = ref 0 in
  Array.iteri
    (fun i (e : Event.t) ->
      (match e.Event.kind with
      | Event.Arrival ->
          let t0 = now_ns () in
          Simulator.apply_event eng e;
          let t1 = now_ns () in
          lat.(!k) <- float_of_int (t1 - t0) /. 1e3;
          incr k;
          Tracer.record_opt tr ~name:"core.arrive" ~parent ~event:e.Event.item.Item.id ~start:t0
            ~stop:t1
      | Event.Departure -> Simulator.apply_event eng e);
      if Simulator.Online.track_name eng = "exact" then incr exact;
      if i mod sample = 0 then begin
        let o = List.length (Simulator.Online.open_bins eng) in
        open_sum := !open_sum + o;
        incr open_n;
        if o > !open_max then open_max := o
      end)
    events;
  let p = Simulator.Online.finish eng ~instance:inst in
  {
    s_lat_us = Array.sub lat 0 !k;
    s_cost = p.Packing.total_cost;
    s_open_mean = float_of_int !open_sum /. float_of_int (max 1 !open_n);
    s_open_max = !open_max;
    s_exact_events = !exact;
  }

(* ---- fleet stage: Serve.Fleet closed-loop firehose ---------------------- *)

type fleet_out = {
  f_wall : float;
  f_pre_rate : float;
  f_post_rate : float;
  f_fail_s : float;
  f_turn_us : float array;  (** Per arrival: arrive returned -> placement seen. *)
  f_arrive_us : float array;  (** Per arrival: Fleet.arrive call (traced only). *)
  f_placements : Serve.placement list;
  f_backlog_max : int;  (** Most arrivals unanswered at once. *)
  f_cpu_s : float;  (** Process CPU time (all domains) over the stage. *)
  f_summary : Serve.summary;
}

let fleet_batch = 1024

(* A closed loop over the Fleet: submits [fleet_batch] events, waits
   in Fleet.quiesce until the shards have answered all of them, and
   only then sends the next batch, so each shard wakes to a full
   mailbox.  With [lose_shard], shard 1 is lost at the event
   midpoint. *)
let fleet_stage ?tr ~parent gate inst ~lose_shard ~keep_placements =
  let events = Event.sorted_array_of_instance inst in
  let n = Array.length events in
  let mid = n / 2 in
  let fleet = Fleet.create (fleet_config ()) in
  let sent = Array.make n 0 and placed = Array.make n 0 in
  let turn = Array.make n 0.0 in
  let arrive_us = Array.make (if Option.is_none tr then 0 else Instance.size inst) 0.0 in
  let k = ref 0 in
  let outstanding = ref 0 and backlog_max = ref 0 in
  let kept = ref [] in
  let take pls =
    let now = now_ns () in
    List.iter
      (fun (p : Serve.placement) ->
        let s = p.Serve.p_seq in
        if s >= 0 && s < n then begin
          if placed.(s) = 0 then begin
            turn.(s) <- float_of_int (now - sent.(s)) /. 1e3;
            decr outstanding
          end;
          placed.(s) <- placed.(s) + 1;
          if keep_placements then kept := p :: !kept
        end
        else fail gate 1 "fleet: placement for an unknown sequence number")
      pls
  in
  let cpu0 = cpu_s () in
  let t0 = now_ns () in
  let t_mid = ref t0 and t_resume = ref t0 and fail_ns = ref 0 in
  Array.iteri
    (fun i (e : Event.t) ->
      if i = mid then begin
        t_mid := now_ns ();
        if lose_shard then begin
          let f0 = now_ns () in
          let pls = Fleet.fail_shard fleet ~now:e.Event.time 1 in
          let f1 = now_ns () in
          take pls;
          fail_ns := f1 - f0;
          Tracer.record_opt tr ~name:"repack.fail_shard" ~parent ~event:(-1) ~start:f0 ~stop:f1
        end;
        t_resume := now_ns ()
      end;
      let it = e.Event.item in
      (match e.Event.kind with
      | Event.Arrival ->
          let a0 = if Option.is_none tr then 0 else now_ns () in
          Fleet.arrive fleet ~seq:i ~now:e.Event.time ~size:it.Item.size ~item:it.Item.id;
          let a1 = now_ns () in
          sent.(i) <- a1;
          incr outstanding;
          if !outstanding > !backlog_max then backlog_max := !outstanding;
          if Option.is_some tr then begin
            arrive_us.(!k) <- float_of_int (a1 - a0) /. 1e3;
            incr k
          end;
          Tracer.record_opt tr ~name:"serve.fleet.arrive" ~parent ~event:it.Item.id ~start:a0
            ~stop:a1
      | Event.Departure -> Fleet.depart fleet ~now:e.Event.time ~item:it.Item.id);
      if (i + 1) mod fleet_batch = 0 then take (Fleet.quiesce fleet))
    events;
  take (Fleet.quiesce fleet);
  let t1 = now_ns () in
  let cpu1 = cpu_s () in
  let pls, frozen = Fleet.snapshot fleet in
  take pls;
  let su = Fleet.summarize fleet frozen in
  Fleet.shutdown fleet;
  let stage = if lose_shard then "fleet (shard loss)" else "fleet" in
  check_placements gate ~stage ~expected:(expected_items gate inst) placed
    ~is_arrival:(fun i -> events.(i).Event.kind = Event.Arrival);
  check gate (su.Serve.su_arrivals = Instance.size inst) (stage ^ ": summary arrivals");
  check gate (su.Serve.su_departures = Instance.size inst) (stage ^ ": summary departures");
  check gate (su.Serve.su_active = 0) (stage ^ ": sessions still active");
  if su.Serve.su_shed > 0 then
    fail gate su.Serve.su_shed (Printf.sprintf "%s: %d sessions shed" stage su.Serve.su_shed);
  if lose_shard then check gate (su.Serve.su_migrated > 0) (stage ^ ": nothing migrated");
  let turn_arr =
    List.filter_map
      (fun i -> if events.(i).Event.kind = Event.Arrival then Some turn.(i) else None)
      (List.init n Fun.id)
    |> Array.of_list
  in
  let wall = secs (t1 - t0) in
  {
    f_wall = wall;
    f_pre_rate = float_of_int mid /. secs (!t_mid - t0);
    f_post_rate = float_of_int (n - mid) /. secs (t1 - !t_resume);
    f_fail_s = secs !fail_ns;
    f_turn_us = turn_arr;
    f_arrive_us = Array.sub arrive_us 0 !k;
    f_placements = List.rev !kept;
    f_backlog_max = !backlog_max;
    f_cpu_s = cpu1 -. cpu0;
    f_summary = su;
  }

(* ---- serve-wire stage: open loop over a socketpair ---------------------- *)

let wire_lines inst =
  let events = Event.sorted_array_of_instance inst in
  let lines =
    Array.mapi
      (fun seq (e : Event.t) ->
        let time = Rat.to_string e.Event.time and item = e.Event.item.Item.id in
        match e.Event.kind with
        | Event.Arrival ->
            Printf.sprintf {|{"seq":%d,"t":"%s","kind":"arrive","item":%d,"size":"%s"}|} seq
              time item
              (Rat.to_string e.Event.item.Item.size)
            ^ "\n"
        | Event.Departure ->
            Printf.sprintf
              {|{"seq":%d,"t":"%s","kind":"depart","item":%d,"bin":-1,"held":"0"}|} seq time
              item
            ^ "\n")
      events
  in
  (lines, Array.map (fun (e : Event.t) -> e.Event.kind = Event.Arrival) events)

let str_field fields key =
  match List.assoc_opt key fields with Some (TE.Str s) -> Some s | _ -> None

let int_field fields key =
  match List.assoc_opt key fields with Some (TE.Int i) -> Some i | _ -> None

type wire_out = {
  w_res : Wire.result;
  w_lat_us : float array;  (** Per answered arrival: due -> placement read. *)
  w_cost : string;
  w_achieved : float;  (** Events per second, first due to summary. *)
}

let wire_stage gate inst (lines, is_arrival) ~rate =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let cfg = fleet_config () in
  let join =
    Pool.spawn_background (fun () ->
        let r = Serve.run_stream cfg ~input:a ~output:a () in
        Unix.close a;
        r)
  in
  let gap_ns = int_of_float (1e9 /. rate) in
  let res = Wire.run ~fd:b ~lines ~is_arrival ~gap_ns in
  Unix.close b;
  (match join () with
  | Ok _ -> ()
  | Error e -> fail gate 1 ("serve-wire: daemon: " ^ e));
  let n = Array.length lines in
  List.iter (fun l -> fail gate 1 ("serve-wire: daemon said " ^ l)) res.Wire.errors;
  if res.Wire.stray > 0 then fail gate res.Wire.stray "serve-wire: stray placement lines";
  check_placements gate ~stage:"serve-wire" ~expected:(expected_items gate inst)
    res.Wire.placed ~is_arrival:(fun i -> is_arrival.(i));
  let cost =
    match res.Wire.summary with
    | None ->
        fail gate 1 "serve-wire: no summary line";
        "?"
    | Some l -> (
        match TE.parse_flat_object l with
        | Error e ->
            fail gate 1 ("serve-wire: summary: " ^ e);
            "?"
        | Ok f ->
            let items = Instance.size inst in
            check gate (int_field f "arrivals" = Some items) "serve-wire: summary arrivals";
            check gate (int_field f "departures" = Some items) "serve-wire: summary departures";
            check gate (int_field f "active" = Some 0) "serve-wire: sessions still active";
            (match int_field f "shed" with
            | Some 0 -> ()
            | Some s -> fail gate s "serve-wire: sessions shed"
            | None -> fail gate 1 "serve-wire: summary without shed");
            Option.value ~default:"?" (str_field f "cost"))
  in
  let lat = ref [] in
  for i = n - 1 downto 0 do
    if is_arrival.(i) && res.Wire.recv_ns.(i) > 0 then
      lat :=
        (float_of_int (res.Wire.recv_ns.(i) - Wire.due res i) /. 1e3) :: !lat
  done;
  {
    w_res = res;
    w_lat_us = Array.of_list !lat;
    w_cost = cost;
    w_achieved = float_of_int n /. secs (res.Wire.last_ns - res.Wire.due0);
  }

let gen_lag_p99_ms wo =
  quantile (sorted_of (Array.map (fun ns -> float_of_int ns /. 1e6) wo.w_res.Wire.lag_ns)) 0.99

let wire_facts wo =
  let lag99 = gen_lag_p99_ms wo in
  [
    ("offered_events_per_s", Printf.sprintf "%.0f" wire_rate);
    ("achieved_events_per_s", Printf.sprintf "%.1f" wo.w_achieved);
    ("gen_lag_p99_ms", Printf.sprintf "%.4f" lag99);
    ("gen_lag_bound_ms", Printf.sprintf "%.1f" gen_lag_bound_ms);
    ("gen_lag_flagged", string_of_bool (lag99 > gen_lag_bound_ms));
  ]

(* ---- layer probes (traced run) ------------------------------------------ *)

(* Router.route in isolation over the stream's arrivals, repeated for
   at least [min_s]. *)
let router_ns inst ~min_s =
  let cfg = fleet_config () in
  let r =
    Router.create ~policy:cfg.Serve.route ~shards:cfg.Serve.shards
      ~capacity:(Instance.capacity inst) ~k:cfg.Serve.split_k
  in
  let items = Instance.items inst in
  let alive _ = true in
  let calls = ref 0 and acc = ref 0 in
  let t0 = now_ns () in
  let t_end = t0 + int_of_float (min_s *. 1e9) in
  while !calls = 0 || now_ns () < t_end do
    Array.iter
      (fun (it : Item.t) ->
        acc := !acc + Router.route r ~alive ~size:it.Item.size ~item_id:it.Item.id)
      items;
    calls := !calls + Array.length items
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (now_ns () - t0) /. float_of_int !calls

(* Trace_event.Feed over the client bytes in 64 KiB chunks. *)
let parse_ns ?tr ~parent gate lines =
  let doc = String.concat "" (Array.to_list lines) in
  let feed = TE.Feed.create () in
  let chunk = 65536 in
  let got = ref 0 in
  let t0 = now_ns () in
  let off = ref 0 in
  while !off < String.length doc do
    let len = min chunk (String.length doc - !off) in
    let c0 = now_ns () in
    (match TE.Feed.feed feed ~off:!off ~len doc with
    | Ok evs -> got := !got + List.length evs
    | Error e -> fail gate 1 ("wire parse: " ^ TE.stream_error_to_string e));
    Tracer.record_opt tr ~name:"obs.feed" ~parent ~event:(-1) ~start:c0 ~stop:(now_ns ());
    off := !off + len
  done;
  let dt = now_ns () - t0 in
  check gate (!got = Array.length lines) "wire parse: event count";
  (float_of_int dt /. float_of_int (max 1 !got), float_of_int (String.length doc) /. float_of_int (Array.length lines))

let format_ns (pls : Serve.placement list) =
  let a = Array.of_list pls in
  if Array.length a = 0 then nan
  else begin
    let bytes = ref 0 in
    let t0 = now_ns () in
    Array.iter (fun p -> bytes := !bytes + String.length (Serve.placement_line p)) a;
    ignore (Sys.opaque_identity !bytes);
    float_of_int (now_ns () - t0) /. float_of_int (Array.length a)
  end

(* ---- set-up ------------------------------------------------------------- *)

type inputs = { inst : Instance.t; lines : string array * bool array }

(* Generation, pre-rendering of client lines (serve-wire), a fleet spawn/shutdown
   and a small warm-up run; repeated [reps] times, the median kept.
   Every repetition builds the same inputs from the same seed. *)
let setup ?tr w ~seed ~scale ~seconds ~reps =
  let count = int_of_float (scale *. float_of_int (w.items ~seconds)) in
  let spec = { w.shape with Spec.count = max 200 count } in
  let times = Array.make reps 0.0 in
  let last = ref None in
  for r = 0 to reps - 1 do
    let t0 = now_ns () in
    let inst = Dbp_workload.Generator.generate ~seed:(Int64.of_int seed) spec in
    Tracer.record_opt tr ~name:"workload.generate" ~parent:(-1) ~event:(-1) ~start:t0
      ~stop:(now_ns ());
    let lines = if w.kind = Wire then wire_lines inst else ([||], [||]) in
    Fleet.shutdown (Fleet.create (fleet_config ()));
    let warm =
      Dbp_workload.Generator.generate ~seed:(Int64.of_int seed)
        { spec with Spec.count = 2_000 }
    in
    ignore (Simulator.run ~audit:false ~policy:(policy_of "first-fit") warm);
    times.(r) <- secs (now_ns () - t0);
    last := Some { inst; lines }
  done;
  (median times, Option.get !last)

(* ---- one run -------------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  rows : (string * float * string) list;  (** In print order. *)
  facts : (string * string) list;
  notes : string list;
}

let gc_counters () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words, s.Gc.promoted_words, s.Gc.major_collections)

let ocaml_version = Sys.ocaml_version
let nproc () = Domain.recommended_domain_count ()

(* Throughput of one run, by key: events and wall seconds summed over
   its samples, so a rate is total events over total time. *)
let rates () =
  let h = Hashtbl.create 8 in
  let find k = Option.value ~default:(0.0, 0.0, 0) (Hashtbl.find_opt h k) in
  let add k ~events ~wall =
    let e, w, n = find k in
    Hashtbl.replace h k (e +. events, w +. wall, n + 1)
  in
  let rate k =
    let e, w, _ = find k in
    e /. w
  in
  let count k =
    let _, _, n = find k in
    n
  in
  (add, rate, count)

(* Rounds until --seconds is spent, each round one sample of every
   stage the workload times, so slow and fast spells of the host fall
   on every figure alike.  serve-wire first sends its open-loop
   stream, which lasts a fixed share of --seconds. *)
let run_untraced gate w ~seed ~seconds ~scale =
  let setup_s, { inst; lines } = setup w ~seed ~scale ~seconds ~reps:9 in
  Gc.compact ();
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let events = float_of_int (2 * Instance.size inst) in
  let add, rate, count = rates () in
  let costs = Hashtbl.create 4 in
  let engine ((tag, _) as p) = add tag ~events ~wall:(engine_run gate inst costs p) in
  let fleet_cost = ref None in
  let fleet () =
    let f = fleet_stage ~parent:(-1) gate inst ~lose_shard:(w.kind = Failover) ~keep_placements:false in
    let c = f.f_summary.Serve.su_cost in
    (match !fleet_cost with
    | None -> fleet_cost := Some c
    | Some c0 -> check gate (Rat.equal c c0) "fleet: cost differs between rounds");
    add "fleet" ~events ~wall:f.f_wall
  in
  (* Placement latencies pooled over the run's rounds. *)
  let lat = ref [] in
  let latency a = lat := a :: !lat in
  (* Placement time of the engine itself: a First Fit Simulator.Online
     replay timing each arrival's apply_event.  Run after the round's
     Simulator.run under First Fit, whose cost it must equal. *)
  let step () =
    let s = step_stage ~parent:(-1) inst ~policy:(policy_of "first-fit") in
    check gate (Rat.equal s.s_cost (Hashtbl.find costs "ff")) "step: Online ff cost differs from Simulator.run";
    latency s.s_lat_us
  in
  let wire = match w.kind with Wire -> Some (wire_stage gate inst lines ~rate:wire_rate) | _ -> None in
  Option.iter (fun wo -> latency wo.w_lat_us) wire;
  let round = ref 0 in
  let min_rounds = match w.kind with Failover -> 3 | Engine | Wire -> 2 in
  while !round < min_rounds || (now_ns () < deadline && !round < 1000) do
    (match w.kind with
    | Engine ->
        List.iter engine policies;
        step ();
        fleet ()
    | Wire ->
        List.iter engine policies;
        fleet ()
    | Failover ->
        fleet ();
        engine (List.nth policies (!round mod List.length policies));
        step ());
    incr round
  done;
  let ff_cost = Hashtbl.find costs "ff" in
  let fleet_cost = Option.get !fleet_cost in
  let bin_seconds =
    match w.kind with
    | Engine -> List.fold_left (fun acc (tag, _) -> Rat.add acc (Hashtbl.find costs tag)) Rat.zero policies
    | Wire | Failover -> fleet_cost
  in
  let m = { rows = [] } in
  put m "setup_s" "s" setup_s;
  List.iter (fun (tag, _) -> put m (tag ^ "_events_per_s") "1/s" (rate tag)) policies;
  put m "fleet_events_per_s" "1/s" (rate "fleet");
  let lat = Array.concat (List.rev !lat) in
  let p50, p90 =
    match w.kind with
    | Wire -> (quiet 0.5 lat, quiet 0.9 lat)
    | Engine | Failover -> (median lat, tail 0.9 lat)
  in
  put m "place_p50_us" "us" p50;
  put m "place_p90_us" "us" p90;
  put m "bin_seconds" "bin-s" (Rat.to_float bin_seconds);
  put m "sharding_cost_ratio" "ratio" (Rat.to_float fleet_cost /. Rat.to_float ff_cost);
  put m "peak_mem_mb" "MB" (peak_mem_mb ());
  let wire_facts =
    match wire with
    | None -> []
    | Some wo ->
        check gate (wo.w_cost = Rat.to_string fleet_cost) "serve-wire: daemon cost differs from the in-process fleet";
        wire_facts wo
  in
  let facts =
    [
      ("items", string_of_int (Instance.size inst));
      ("rounds", string_of_int !round);
      ("engine_samples_per_policy", string_of_int (count "ff"));
      ("fleet_samples", string_of_int (count "fleet"));
      ("latency_samples", string_of_int (Array.length lat));
    ]
    @ wire_facts
  in
  (List.rev m.rows, facts)

let run_traced gate w ~seed ~seconds ~scale ~spans_path =
  let tr = Tracer.create () in
  let m = { rows = [] } in
  let _setup_s, { inst; lines } = setup ~tr w ~seed ~scale ~seconds ~reps:1 in
  Gc.compact ();
  (* Untraced reference of the engine and fleet stages: cost strings
     for the traced-vs-untraced gate, GC counters and the tracing
     overhead. *)
  let g0 = gc_counters () in
  let costs = Hashtbl.create 4 in
  let untraced_engine = List.fold_left (fun a p -> a +. engine_run gate inst costs p) 0.0 policies in
  let fleet_ref = fleet_stage ~parent:(-1) gate inst ~lose_shard:(w.kind = Failover) ~keep_placements:false in
  let g1 = gc_counters () in
  let untraced_wall = untraced_engine +. fleet_ref.f_wall in
  let traced_wall = ref 0.0 in
  let opens = ref [] and exact = ref 0 and ff_lat = ref [||] in
  List.iter
    (fun (tag, name) ->
      let policy = policy_of name in
      let profile = Profile.create () in
      let sp = Tracer.open_span tr ~name:("core.run." ^ tag) ~parent:(-1) in
      let t0 = now_ns () in
      let p = Simulator.run ~audit:false ~profile ~policy inst in
      let wall = secs (now_ns () - t0) in
      Tracer.close tr sp;
      traced_wall := !traced_wall +. wall;
      check gate
        (Rat.to_string p.Packing.total_cost = Rat.to_string (Hashtbl.find costs tag))
        (Printf.sprintf "traced %s: cost string differs from the untraced run" tag);
      let phase name =
        List.fold_left (fun a (n, s, _) -> if n = name then a +. s else a) 0.0 (Profile.spans profile)
      in
      let views = phase "views" and pol = phase "policy" and commit = phase "commit" in
      put m (Printf.sprintf "sim.%s.views_s" tag) "s" views;
      put m (Printf.sprintf "sim.%s.policy_s" tag) "s" pol;
      put m (Printf.sprintf "sim.%s.commit_s" tag) "s" commit;
      put m (Printf.sprintf "sim.%s.rest_s" tag) "s" (wall -. views -. pol -. commit);
      put m (Printf.sprintf "sim.%s.wall_s" tag) "s" wall;
      let ss = Tracer.open_span tr ~name:("core.step." ^ tag) ~parent:(-1) in
      let s = step_stage ~tr ~parent:ss inst ~policy in
      Tracer.close tr ss;
      check gate
        (Rat.to_string s.s_cost = Rat.to_string p.Packing.total_cost)
        (Printf.sprintf "traced %s: Online cost string differs from Simulator.run" tag);
      put m (Printf.sprintf "sim.%s.arrive_p50_us" tag) "us" (median s.s_lat_us);
      put m (Printf.sprintf "sim.%s.arrive_p99_us" tag) "us"
        (tail 0.99 s.s_lat_us);
      if tag = "ff" then ff_lat := s.s_lat_us;
      opens := (s.s_open_mean, s.s_open_max) :: !opens;
      exact := !exact + s.s_exact_events)
    policies;
  put m "sim.open_bins_mean" "count"
    (List.fold_left (fun a (x, _) -> a +. x) 0.0 !opens /. float_of_int (List.length !opens));
  put m "sim.open_bins_max" "count"
    (float_of_int (List.fold_left (fun a (_, x) -> max a x) 0 !opens));
  put m "sim.exact_track_events" "count" (float_of_int !exact);
  (* Fleet, traced. *)
  let fs = Tracer.open_span tr ~name:"serve.fleet" ~parent:(-1) in
  let f = fleet_stage ~tr ~parent:fs gate inst ~lose_shard:(w.kind = Failover) ~keep_placements:true in
  Tracer.close tr fs;
  traced_wall := !traced_wall +. f.f_wall;
  check gate
    (Rat.to_string f.f_summary.Serve.su_cost = Rat.to_string fleet_ref.f_summary.Serve.su_cost)
    "traced fleet: cost string differs from the untraced run";
  put m "fleet.arrive_us_p50" "us" (median f.f_arrive_us);
  put m "fleet.turnaround_us_p50" "us" (median f.f_turn_us);
  put m "fleet.turnaround_us_p99" "us" (tail 0.99 f.f_turn_us);
  put m "fleet.pre_fail_events_per_s" "1/s" f.f_pre_rate;
  put m "fleet.post_fail_events_per_s" "1/s" f.f_post_rate;
  put m "fleet.fail_shard_s" "s" f.f_fail_s;
  put m "fleet.migrated" "count" (float_of_int f.f_summary.Serve.su_migrated);
  put m "fleet.shed" "count" (float_of_int f.f_summary.Serve.su_shed);
  (* Router, wire parse and format, in isolation. *)
  let rs = Tracer.open_span tr ~name:"serve.router" ~parent:(-1) in
  put m "router.route_ns" "ns" (router_ns inst ~min_s:0.2);
  Tracer.close tr rs;
  let ps = Tracer.open_span tr ~name:"obs.parse" ~parent:(-1) in
  let lines = if w.kind = Wire then lines else wire_lines inst in
  let parse, bytes = parse_ns ~tr ~parent:ps gate (fst lines) in
  Tracer.close tr ps;
  put m "wire.parse_ns_per_event" "ns" parse;
  let fm = Tracer.open_span tr ~name:"serve.format" ~parent:(-1) in
  put m "wire.format_ns_per_line" "ns" (format_ns f.f_placements);
  Tracer.close tr fm;
  put m "wire.bytes_per_event" "B" bytes;
  (* The open-loop stream, traced: one span per arrival from its due
     time to its placement. *)
  let cpu, wall, backlog, lag99, place, facts =
    match w.kind with
    | Wire ->
        let ws = Tracer.open_span tr ~name:"serve.wire" ~parent:(-1) in
        let cpu0 = cpu_s () and t0 = now_ns () in
        let wo = wire_stage gate inst lines ~rate:wire_rate in
        let cpu = cpu_s () -. cpu0 and wall = secs (now_ns () - t0) in
        Tracer.close tr ws;
        Array.iteri
          (fun i r ->
            if r > 0 then
              ignore
                (Tracer.record tr ~name:"serve.wire.place" ~parent:ws ~event:i
                   ~start:(Wire.due wo.w_res i) ~stop:r))
          wo.w_res.Wire.recv_ns;
        (cpu, wall, wo.w_res.Wire.backlog_max, gen_lag_p99_ms wo, wo.w_lat_us, wire_facts wo)
    | Engine | Failover -> (f.f_cpu_s, f.f_wall, f.f_backlog_max, 0.0, !ff_lat, [])
  in
  (* The traced run's placement latency, defined as for place_p50_us,
     beside the wire and client figures.  Its p99 wanders too much
     between runs on a shared 2-core host to carry a bound, so the
     end-to-end tail is p90 and the p99 is reported here. *)
  put m "client.place_p50_us" "us" (median place);
  put m "client.place_p99_us" "us" (tail 0.99 place);
  (* Busy time beside wall time of the serving stage: the open-loop
     stream on serve-wire, the fleet firehose elsewhere. *)
  put m "proc.cpu_s" "s" cpu;
  put m "proc.wall_s" "s" wall;
  put m "client.backlog_max" "count" (float_of_int backlog);
  put m "client.gen_lag_p99_ms" "ms" lag99;
  let minor0, prom0, maj0 = g0 and minor1, prom1, maj1 = g1 in
  put m "gc.minor_mwords" "Mwords" ((minor1 -. minor0) /. 1e6);
  put m "gc.promoted_mwords" "Mwords" ((prom1 -. prom0) /. 1e6);
  put m "gc.major_collections" "count" (float_of_int (maj1 - maj0));
  let self = Tracer.self_by_layer tr in
  List.iter
    (fun l -> put m (Printf.sprintf "layer.%s.self_s" l) "s" (self l))
    [ "workload"; "core"; "serve"; "obs"; "repack" ];
  let overhead = !traced_wall -. untraced_wall in
  put m "trace.overhead_s" "s" overhead;
  (match spans_path with
  | Some p -> Tracer.write tr p
  | None -> ());
  ( List.rev m.rows,
    [ ("items", string_of_int (Instance.size inst)); ("trace_overhead_s", Printf.sprintf "%.4f" overhead) ]
    @ facts )

let run_one w ~seed ~seconds ~trace ~scale ~tamper ~spans_path =
  let gate = { attempted = 0; failed = 0; notes = []; tamper } in
  let rows, facts =
    match
      if trace then run_traced gate w ~seed ~seconds ~scale ~spans_path
      else run_untraced gate w ~seed ~seconds ~scale
    with
    | r -> r
    | exception (Serve.Protocol msg | Simulator.Invalid_step msg | Failure msg | Invalid_argument msg) ->
        fail gate 1 ("aborted: " ^ msg);
        ([], [])
    | exception Unix.Unix_error (e, fn, _) ->
        fail gate 1 (Printf.sprintf "aborted: %s: %s" fn (Unix.error_message e));
        ([], [])
  in
  {
    correct = gate.failed = 0 && gate.attempted > 0;
    attempted = max 1 gate.attempted;
    failed = gate.failed;
    rows;
    facts =
      [
        ("workload", w.name);
        ("trace", if trace then "1" else "0");
        ("nproc", string_of_int (nproc ()));
        ("ocaml", ocaml_version);
      ]
      @ facts;
    notes = List.rev gate.notes;
  }

(* ---- output ---------------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line o =
  let metrics =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string n) (json_number v) (json_string u))
      o.rows
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" o.correct
    o.attempted o.failed (String.concat ", " metrics)

let print_outcome o =
  List.iter (fun n -> Printf.printf "gate: %s\n" n) o.notes;
  List.iter (fun (n, v, u) -> Printf.printf "%-32s %16.6g %s\n" n v u) o.rows;
  Printf.printf "facts: {%s}\n"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (json_string v)) o.facts));
  List.iter
    (fun (k, v) ->
      if k = "gen_lag_flagged" && v = "true" then
        Printf.printf "FLAG: open-loop generator p99 lag above %.1f ms; latency figures are suspect\n"
          gen_lag_bound_ms)
    o.facts;
  print_endline (result_line o)

(* ---- self-test ------------------------------------------------------------ *)

(* Metric names are checked against BENCHMARK.json by run.py, which
   reads the results this prints. *)
let self_test () =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun w ->
      List.iter
        (fun trace ->
          let o =
            run_one w ~seed:7 ~seconds:1.0 ~trace ~scale:0.02 ~tamper:false ~spans_path:None
          in
          Printf.printf "-- %s trace=%b\n" w.name trace;
          print_outcome o;
          if not o.correct then problem "%s trace=%b: gate failed on honest inputs" w.name trace;
          List.iter
            (fun (n, v, u) ->
              if u = "" then problem "%s: metric %s has no unit" w.name n;
              if Float.is_nan v then problem "%s: metric %s is not a number" w.name n)
            o.rows)
        [ false; true ];
      let t = run_one w ~seed:7 ~seconds:1.0 ~trace:false ~scale:0.02 ~tamper:true ~spans_path:None in
      if t.correct || t.failed = 0 then
        problem "%s: gate did not trip on a wrong expectation" w.name
      else Printf.printf "-- %s: gate trips on a wrong expectation (%d failed)\n" w.name t.failed)
    workloads;
  match !problems with
  | [] ->
      print_endline "self-test: ok";
      exit 0
  | ps ->
      List.iter (fun p -> Printf.printf "self-test: %s\n" p) (List.rev ps);
      exit 1

(* ---- main ----------------------------------------------------------------- *)

let () =
  (* A daemon that dies mid-stream must surface as EPIPE, not kill the run. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let self = ref false and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--spans", Arg.Set_string spans, "FILE where the traced run writes its spans");
      ("--self-test", Arg.Set self, " run the benchmark's self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !self then self_test ();
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w ->
      let o =
        run_one w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1) ~scale:1.0
          ~tamper:false
          ~spans_path:(if !spans = "" then None else Some !spans)
      in
      print_outcome o;
      exit (if o.correct then 0 else 1)
