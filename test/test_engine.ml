(* Engine equivalence: the O(open-bins) simulator must be bit-identical
   to the retained seed engine ([Simulator_naive]) — same packings,
   same costs, same any-fit violations — across every policy, random
   seeds, and fail_bin storms.  Plus unit tests for the store's open-bin
   slots (opening order, per-bin view reuse) on both numeric
   instances. *)

open Dbp_num
open Dbp_core
open Test_util

(* ---- deep packing equality ----------------------------------------- *)

let bin_record_equal (a : Packing.bin_record) (b : Packing.bin_record) =
  a.Packing.bin_id = b.Packing.bin_id
  && String.equal a.tag b.tag
  && Rat.equal a.capacity b.capacity
  && Rat.equal a.opened b.opened
  && Rat.equal a.closed b.closed
  && a.item_ids = b.item_ids
  && List.length a.placements = List.length b.placements
  && List.for_all2
       (fun (t1, i1) (t2, i2) -> Rat.equal t1 t2 && i1 = i2)
       a.placements b.placements
  && Rat.equal a.max_level b.max_level

let packing_equal (a : Packing.t) (b : Packing.t) =
  String.equal a.Packing.policy_name b.Packing.policy_name
  && Rat.equal a.total_cost b.total_cost
  && a.max_bins = b.max_bins
  && a.any_fit_violations = b.any_fit_violations
  && a.assignment = b.assignment
  && Step_fn.equal a.timeline b.timeline
  && Array.length a.bins = Array.length b.bins
  && Array.for_all2 bin_record_equal a.bins b.bins

let check_equivalent ~what instance policy =
  let fast = Simulator.run ~policy instance in
  let naive = Simulator_naive.run ~policy instance in
  if not (packing_equal fast naive) then
    Alcotest.failf "%s: engines diverge under %s (fast %a vs seed %a)" what
      policy.Policy.name Packing.pp_summary fast Packing.pp_summary naive

(* ---- equivalence on generated workloads ----------------------------- *)

let equivalence_seeds = [ 7L; 19L; 23L; 31L; 42L ]

let test_generated_equivalence () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 400 }
      in
      List.iter
        (check_equivalent
           ~what:(Printf.sprintf "generated seed %Ld" seed)
           instance)
        (Algorithms.all ()))
    equivalence_seeds

let prop_equivalence =
  qcheck ~count:60 "engines bit-identical on random instances"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun policy ->
          packing_equal
            (Simulator.run ~policy instance)
            (Simulator_naive.run ~policy instance))
        (Algorithms.all ()))

(* ---- equivalence under fail_bin storms ------------------------------ *)

(* Drives both Online engines in lockstep through a seeded random
   session workload with crashes striking between the integer steps,
   asserting identical observable state throughout and identical
   packings at the end.  Mirrors what [Dbp_faults.Injector] does to the
   engine, without the retry machinery in the way. *)
let run_storm ?grid ~seed ~steps policy =
  let rng = Dbp_rand.Pcg32.create seed in
  let fast = Simulator.Online.create ?grid ~policy ~capacity:Rat.one () in
  let naive = Simulator_naive.Online.create ~policy ~capacity:Rat.one () in
  let next_id = ref 0 in
  let active : (int, Rat.t * Rat.t) Hashtbl.t = Hashtbl.create 64 in
  (* id -> (size, arrival) *)
  let stopped = ref [] in
  (* (id, size, arrival, stop) *)
  let stop ~at id =
    let size, arrival = Hashtbl.find active id in
    Hashtbl.remove active id;
    stopped := (id, size, arrival, at) :: !stopped
  in
  let views_agree ~at =
    let vf = Simulator.Online.open_bins fast in
    let vn = Simulator_naive.Online.open_bins naive in
    if vf <> vn then
      Alcotest.failf "open-bin views diverge at t=%a under %s" Rat.pp at
        policy.Policy.name
  in
  for step = 0 to steps - 1 do
    let now = Rat.of_int step in
    (* a few arrivals *)
    let arrivals = 1 + Dbp_rand.Pcg32.next_int rng 3 in
    for _ = 1 to arrivals do
      let size = Rat.make (1 + Dbp_rand.Pcg32.next_int rng 12) 12 in
      let id = !next_id in
      incr next_id;
      let bf = Simulator.Online.arrive fast ~now ~size ~item_id:id in
      let bn = Simulator_naive.Online.arrive naive ~now ~size ~item_id:id in
      Alcotest.(check int) "same placement" bf bn;
      Hashtbl.replace active id (size, now)
    done;
    views_agree ~at:now;
    (* maybe a departure of a random active item that arrived earlier *)
    let departable =
      Hashtbl.fold
        (fun id (_, arrival) acc ->
          if Rat.(arrival < now) then id :: acc else acc)
        active []
      |> List.sort compare
    in
    (match departable with
    | [] -> ()
    | ids ->
        let id = List.nth ids (Dbp_rand.Pcg32.next_int rng (List.length ids)) in
        Simulator.Online.depart fast ~now ~item_id:id;
        Simulator_naive.Online.depart naive ~now ~item_id:id;
        stop ~at:now id;
        views_agree ~at:now);
    (* crash between steps: strike the same bin in both engines *)
    if Dbp_rand.Pcg32.next_int rng 3 = 0 then begin
      let at = Rat.add now (Rat.make 1 2) in
      match Simulator.Online.open_bins fast with
      | [] -> ()
      | views ->
          let victim =
            (List.nth views (Dbp_rand.Pcg32.next_int rng (List.length views)))
              .Bin.bin_id
          in
          let ef = Simulator.Online.fail_bin fast ~now:at ~bin_id:victim in
          let en = Simulator_naive.Online.fail_bin naive ~now:at ~bin_id:victim in
          Alcotest.(check (list (pair int rat)))
            "same evictions in same order" ef en;
          List.iter (fun (id, _) -> stop ~at id) ef;
          views_agree ~at
    end
  done;
  (* drain the survivors *)
  let finis = Rat.of_int steps in
  Hashtbl.fold (fun id _ acc -> id :: acc) active []
  |> List.sort compare
  |> List.iter (fun id ->
         Simulator.Online.depart fast ~now:finis ~item_id:id;
         Simulator_naive.Online.depart naive ~now:finis ~item_id:id;
         stop ~at:finis id);
  views_agree ~at:finis;
  let effective =
    Instance.create ~capacity:Rat.one
      (List.rev_map
         (fun (id, size, arrival, stop) ->
           Item.make ~id ~size ~arrival ~departure:stop)
         (List.sort (fun (a, _, _, _) (b, _, _, _) -> compare b a) !stopped))
  in
  let pf = Simulator.Online.finish fast ~instance:effective in
  let pn = Simulator_naive.Online.finish naive ~instance:effective in
  if not (packing_equal pf pn) then
    Alcotest.failf "storm packings diverge under %s (seed %Ld)"
      policy.Policy.name seed

let test_storm_equivalence () =
  List.iter
    (fun seed ->
      List.iter (run_storm ~seed ~steps:40) (Algorithms.all ()))
    [ 3L; 5L; 8L; 13L; 21L ]

(* Same storms on the fixed-point track: sizes are twelfths and crash
   instants halves, so a 1/24 grid admits every input and the fast
   store's arrive/depart/fail_bin paths run scaled end to end. *)
let test_fixed_storm_equivalence () =
  let grid =
    match Fixed.scale_of_den 24 with Some s -> s | None -> assert false
  in
  List.iter
    (fun seed ->
      List.iter (run_storm ~grid ~seed ~steps:40) (Algorithms.all ()))
    [ 3L; 13L; 21L ]

(* ---- two-track engine: fixed fast path vs forced exact -------------- *)

let grid_of_den d =
  match Fixed.scale_of_den d with Some s -> s | None -> assert false

(* Both store instances: the fixed one (on a grid) and the Rat one. *)
let instances = [ ("fixed", Some (grid_of_den 8)); ("exact", None) ]

let view_ids o =
  List.map (fun (v : Bin.view) -> v.Bin.bin_id) (Simulator.Online.open_bins o)

(* Unit-size items open one bin each; closing the middle, head and
   tail bins must keep the survivors in opening order, and a new bin
   appends after the gaps. *)
let opening_order_case (name, grid) =
  let o =
    Simulator.Online.create ?grid ~policy:First_fit.policy ~capacity:Rat.one ()
  in
  Alcotest.(check string) "instance" name (Simulator.Online.track_name o);
  let ids = Alcotest.(check (list int)) in
  for i = 0 to 3 do
    ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:Rat.one ~item_id:i)
  done;
  ids "opening order" [ 0; 1; 2; 3 ] (view_ids o);
  Simulator.Online.depart o ~now:Rat.one ~item_id:1;
  ids "middle close" [ 0; 2; 3 ] (view_ids o);
  Simulator.Online.depart o ~now:Rat.one ~item_id:0;
  ids "head close" [ 2; 3 ] (view_ids o);
  Simulator.Online.depart o ~now:Rat.one ~item_id:3;
  ids "tail close" [ 2 ] (view_ids o);
  ignore (Simulator.Online.arrive o ~now:Rat.two ~size:Rat.one ~item_id:4);
  ids "append after gaps" [ 2; 4 ] (view_ids o);
  Simulator.Online.audit o;
  Simulator.Online.open_bins o

(* [run] picks the fixed-point track by itself (grid_of_instance);
   [~grid:None] pins the exact track.  The packings must be
   bit-identical — cost strings, timelines, placements, the lot. *)
let test_fixed_vs_exact_runs () =
  (match List.map opening_order_case instances with
  | [ vf; ve ] ->
      Alcotest.(check bool) "hand-driven views identical" true (vf = ve)
  | _ -> assert false);
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 300 }
      in
      Alcotest.(check bool)
        "workload grid found" true
        (Simulator.grid_of_instance instance <> None);
      List.iter
        (fun policy ->
          let fast = Simulator.run ~policy instance in
          let exact = Simulator.run ~grid:None ~policy instance in
          if not (packing_equal fast exact) then
            Alcotest.failf "fixed/exact tracks diverge under %s (seed %Ld)"
              policy.Policy.name seed)
        (Algorithms.all ()))
    [ 11L; 42L ]

(* Mid-run degrade: the first off-grid size must flip the engine to
   the exact track without disturbing any observable state. *)
let test_degrade_mid_run () =
  let grid =
    match Fixed.scale_of_den 4 with Some s -> s | None -> assert false
  in
  let policy = Best_fit.policy in
  let fast = Simulator.Online.create ~grid ~policy ~capacity:Rat.one () in
  let exact = Simulator.Online.create ~policy ~capacity:Rat.one () in
  Alcotest.(check string)
    "starts fixed" "fixed"
    (Simulator.Online.track_name fast);
  Alcotest.(check string)
    "no grid means exact" "exact"
    (Simulator.Online.track_name exact);
  let drive o =
    ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:0);
    ignore (Simulator.Online.arrive o ~now:(r 1 2) ~size:(r 1 4) ~item_id:1);
    (* 1/3 is off the 1/4 grid: this arrival degrades the fast engine *)
    ignore (Simulator.Online.arrive o ~now:Rat.one ~size:(r 1 3) ~item_id:2);
    Simulator.Online.depart o ~now:(ri 2) ~item_id:0;
    ignore (Simulator.Online.arrive o ~now:(ri 2) ~size:(r 3 4) ~item_id:3);
    Simulator.Online.depart o ~now:(ri 3) ~item_id:1;
    Simulator.Online.depart o ~now:(ri 3) ~item_id:2;
    Simulator.Online.depart o ~now:(ri 4) ~item_id:3
  in
  drive fast;
  drive exact;
  Alcotest.(check string)
    "degraded to exact" "exact"
    (Simulator.Online.track_name fast);
  let vf = Simulator.Online.open_bins fast
  and ve = Simulator.Online.open_bins exact in
  Alcotest.(check bool) "views identical after degrade" true (vf = ve);
  let instance =
    Instance.create ~capacity:Rat.one
      [
        Item.make ~id:0 ~size:(r 1 2) ~arrival:Rat.zero ~departure:(ri 2);
        Item.make ~id:1 ~size:(r 1 4) ~arrival:(r 1 2) ~departure:(ri 3);
        Item.make ~id:2 ~size:(r 1 3) ~arrival:Rat.one ~departure:(ri 3);
        Item.make ~id:3 ~size:(r 3 4) ~arrival:(ri 2) ~departure:(ri 4);
      ]
  in
  let pf = Simulator.Online.finish fast ~instance
  and pe = Simulator.Online.finish exact ~instance in
  if not (packing_equal pf pe) then
    Alcotest.fail "degraded packing diverges from always-exact"

(* ---- open-bin slots ------------------------------------------------ *)

(* Views are re-projected only for bins an event touched: the other
   open bins hand back the physically same record. *)
let test_index_views_reuse_cached () =
  List.iter
    (fun (name, grid) ->
      let o =
        Simulator.Online.create ?grid ~policy:First_fit.policy
          ~capacity:Rat.one ()
      in
      ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 3 4) ~item_id:0);
      ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:1);
      let first = Simulator.Online.open_bins o in
      ignore (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:2);
      let second = Simulator.Online.open_bins o in
      match (first, second) with
      | [ a0; a1 ], [ c0; c1 ] ->
          Alcotest.(check bool)
            (name ^ ": untouched bin's view physically reused")
            true (a0 == c0);
          Alcotest.(check bool) (name ^ ": touched bin's view rebuilt") true
            (not (a1 == c1));
          Alcotest.(check int) (name ^ ": rebuilt view sees the insert") 2
            c1.Bin.bin_count;
          check_rat (name ^ ": rebuilt view level") Rat.one c1.Bin.bin_level
      | _ -> Alcotest.fail "expected two views")
    instances

(* The store is dense in item id: ids outside [0, max_fast_item] are a
   protocol error on both instances, not a silent track change. *)
let test_item_id_range () =
  List.iter
    (fun (name, grid) ->
      let o =
        Simulator.Online.create ?grid ~policy:First_fit.policy
          ~capacity:Rat.one ()
      in
      List.iter
        (fun id ->
          match
            Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:id
          with
          | _ -> Alcotest.failf "%s: id %d admitted" name id
          | exception Simulator.Invalid_step _ -> ())
        [ -1; Simulator.max_fast_item + 1; 1 lsl 40 ];
      ignore
        (Simulator.Online.arrive o ~now:Rat.zero ~size:(r 1 2)
           ~item_id:Simulator.max_fast_item);
      Alcotest.(check string) (name ^ ": no track change") name
        (Simulator.Online.track_name o))
    instances

(* A recycled id may be placed again, even in the bin that still
   lists its first placement: only the latest placement is live for
   victims, images and the audit, the history keeps both, an image
   with the id twice thaws, and a degrade keeps the id free. *)
let test_recycled_ids () =
  List.iter
    (fun (name, grid) ->
      let module O = Simulator.Online in
      let o = O.create ~audit:true ?grid ~policy:First_fit.policy
          ~capacity:Rat.one () in
      let raises what f =
        match f () with
        | _ -> Alcotest.failf "%s: %s admitted" name what
        | exception Simulator.Invalid_step _ -> ()
      in
      let items = Alcotest.(check (list (pair int string))) in
      let active o =
        List.map (fun (i, sz) -> (i, Rat.to_string sz)) (O.active_items_in o 0)
      in
      ignore (O.arrive o ~now:Rat.zero ~size:(r 1 2) ~item_id:0);
      ignore (O.arrive o ~now:Rat.zero ~size:(r 1 4) ~item_id:1);
      raises "recycle of an active id" (fun () -> O.recycle o ~item_id:0);
      raises "recycle of an unused id" (fun () -> O.recycle o ~item_id:5);
      O.depart o ~now:Rat.one ~item_id:0;
      raises "reuse without recycle" (fun () ->
          O.arrive o ~now:Rat.one ~size:(r 1 8) ~item_id:0);
      O.recycle o ~item_id:0;
      Alcotest.(check int) (name ^ ": same bin") 0
        (O.arrive o ~now:Rat.two ~size:(r 1 2) ~item_id:0);
      items (name ^ ": live placements") [ (0, "1/2"); (1, "1/4") ] (active o);
      let frozen = O.freeze o in
      let b0 = List.hd frozen.O.Frozen.s_bins in
      Alcotest.(check (list int)) (name ^ ": history keeps both")
        [ 0; 1; 0 ] (List.map snd b0.O.Frozen.b_placements);
      let thawed = O.thaw ~audit:true ~policy:First_fit.policy frozen in
      items (name ^ ": thawed live placements") (active o) (active thawed);
      O.depart o ~now:(ri 3) ~item_id:1;
      items (name ^ ": victims") [ (0, "1/2") ]
        (List.map
           (fun (i, sz) -> (i, Rat.to_string sz))
           (O.fail_bin o ~now:(ri 4) ~bin_id:0));
      O.recycle o ~item_id:0;
      (* 13/3 is off the 1/8 grid: the fixed store degrades here. *)
      ignore (O.arrive o ~now:(r 13 3) ~size:(r 1 3) ~item_id:0);
      Alcotest.(check string) (name ^ ": exact after off-grid time") "exact"
        (O.track_name o);
      O.audit o)
    instances

(* Taps no longer force the exact instance: a traced engine on a grid
   stays fixed, and its trace is byte-identical to the Rat run's. *)
let test_sink_keeps_fixed_track () =
  let instance =
    Dbp_workload.Generator.generate ~seed:5L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 200 }
  in
  let grid = Simulator.grid_of_instance instance in
  let trace grid =
    let buf = Buffer.create 4096 in
    let sink = Dbp_obs.Sink.to_buffer buf in
    let o =
      Simulator.Online.create ~sink ?grid ~policy:Best_fit.policy
        ~capacity:(Instance.capacity instance) ()
    in
    let track = Simulator.Online.track_name o in
    List.iter (Simulator.apply_event o) (Event.of_instance instance);
    ignore (Simulator.Online.finish o ~instance);
    Dbp_obs.Sink.flush sink;
    (track, Buffer.contents buf)
  in
  let track_fixed, fixed = trace grid and track_exact, exact = trace None in
  Alcotest.(check string) "traced run stays fixed" "fixed" track_fixed;
  Alcotest.(check string) "grid-less run is exact" "exact" track_exact;
  Alcotest.(check bool) "trace is non-trivial" true (String.length fixed > 1000);
  Alcotest.(check string) "trace byte-identical" exact fixed

(* ---- packed event keys: id-overflow audit --------------------------- *)

let test_event_key_boundaries () =
  (* Round trip at the exact corners of the packed layout. *)
  List.iter
    (fun (time_s, arrival, id) ->
      let k = Simulator.pack_event_key ~time_s ~arrival ~id in
      Alcotest.(check bool) "key non-negative" true (k >= 0);
      let t', a', i' = Simulator.unpack_event_key k in
      Alcotest.(check int) "time survives" time_s t';
      Alcotest.(check bool) "kind survives" arrival a';
      Alcotest.(check int) "id survives" id i')
    [
      (0, false, 0);
      (0, true, Simulator.max_fast_item);
      (Simulator.event_key_time_limit - 1, true, Simulator.max_fast_item);
      (Simulator.event_key_time_limit - 1, false, 0);
    ];
  (* An id one past the guard would carry into the kind bit; the
     packer must refuse rather than silently corrupt the order. *)
  List.iter
    (fun (time_s, id) ->
      match Simulator.pack_event_key ~time_s ~arrival:true ~id with
      | _ -> Alcotest.failf "packed out-of-range id %d" id
      | exception Invalid_argument _ -> ())
    [
      (0, Simulator.max_fast_item + 1);
      (0, -1);
      (Simulator.event_key_time_limit, 0);
      (-1, 0);
    ]

let prop_event_key_order =
  qcheck ~count:500 "packed keys sort like (time, departures-first, id)"
    QCheck2.Gen.(
      pair
        (triple (int_bound 1000000) bool (int_bound Simulator.max_fast_item))
        (triple (int_bound 1000000) bool (int_bound Simulator.max_fast_item)))
    (fun ((t1, a1, i1), (t2, a2, i2)) ->
      let k1 = Simulator.pack_event_key ~time_s:t1 ~arrival:a1 ~id:i1 in
      let k2 = Simulator.pack_event_key ~time_s:t2 ~arrival:a2 ~id:i2 in
      let expect =
        if t1 <> t2 then compare t1 t2
        else if a1 <> a2 then compare a1 a2 (* false (departure) first *)
        else compare i1 i2
      in
      compare k1 k2 = expect
      && Simulator.unpack_event_key k1 = (t1, a1, i1))

let suite =
  [
    Alcotest.test_case "generated workloads: engines bit-identical" `Quick
      test_generated_equivalence;
    Alcotest.test_case "event key boundaries" `Quick test_event_key_boundaries;
    prop_event_key_order;
    prop_equivalence;
    Alcotest.test_case "fail_bin storms: engines bit-identical" `Quick
      test_storm_equivalence;
    Alcotest.test_case "fixed-track storms: engines bit-identical" `Quick
      test_fixed_storm_equivalence;
    Alcotest.test_case "fixed vs forced-exact runs bit-identical" `Quick
      test_fixed_vs_exact_runs;
    Alcotest.test_case "mid-run degrade is invisible" `Quick
      test_degrade_mid_run;
    Alcotest.test_case "index views reuse cached bin views" `Quick
      test_index_views_reuse_cached;
    Alcotest.test_case "item ids outside the store range raise" `Quick
      test_item_id_range;
    Alcotest.test_case "sink keeps the fixed track, trace identical" `Quick
      test_sink_keeps_fixed_track;
    Alcotest.test_case "recycled ids keep bin histories" `Quick
      test_recycled_ids;
  ]
