(* The fleet service: shard-pool ordering and failure contracts, the
   router's pool split, bit-identity of a one-shard fleet against the
   batch simulator, exact cost additivity across shards, shard-loss
   degradation under migration budgets, and the socketpair replay
   path end-to-end. *)

open Dbp_num
open Dbp_core
open Dbp_serve
open Test_util

(* ---- shard pool ------------------------------------------------------ *)

let test_pool_fifo_per_shard () =
  let pool =
    Shard_pool.create ~shards:3 ~handler:(fun ~shard req ->
        [ (shard * 1000) + (req * 2) ])
  in
  for i = 0 to 99 do
    Shard_pool.submit pool ~shard:(i mod 3) i
  done;
  let out = Shard_pool.quiesce pool in
  Alcotest.(check int) "one response per request" 100 (List.length out);
  (* Within a shard the mailbox is FIFO, so responses come back in
     submission order even though shards interleave arbitrarily. *)
  for k = 0 to 2 do
    let mine = List.filter_map
        (fun (shard, r) -> if shard = k then Some r else None)
        out
    in
    let expected =
      List.init 100 Fun.id
      |> List.filter (fun i -> i mod 3 = k)
      |> List.map (fun i -> (k * 1000) + (i * 2))
    in
    Alcotest.(check (list int))
      (Printf.sprintf "shard %d FIFO" k)
      expected mine
  done;
  Alcotest.(check (list (pair int int))) "shutdown drains nothing" []
    (Shard_pool.shutdown pool)

let test_pool_batches_survive_idle () =
  (* Responses submitted while the worker sleeps are all processed by
     the next wakeup; poll eventually sees every one. *)
  let pool = Shard_pool.create ~shards:1 ~handler:(fun ~shard:_ r -> [ r ]) in
  for round = 0 to 4 do
    for i = 0 to 19 do
      Shard_pool.submit pool ~shard:0 ((round * 20) + i)
    done;
    ignore (Shard_pool.poll pool)
  done;
  let rest = Shard_pool.quiesce pool in
  ignore (Shard_pool.shutdown pool);
  Alcotest.(check bool) "quiesce flushed the tail" true
    (List.length rest <= 100)

(* The handler fails on item 13, but only once the test opens the
   latch (a pipe it writes to after submitting everything), so every
   submit lands before the shard can die. *)
let test_pool_failure_contract () =
  let latch_r, latch_w = Unix.pipe ~cloexec:true () in
  let pool =
    Shard_pool.create ~shards:2 ~handler:(fun ~shard:_ req ->
        if req = 13 then begin
          ignore (Unix.read latch_r (Bytes.create 1) 0 1);
          failwith "boom-13"
        end;
        [ req ])
  in
  for i = 0 to 30 do
    Shard_pool.submit pool ~shard:(i mod 2) i
  done;
  ignore (Unix.write_substring latch_w "!" 0 1);
  (match Shard_pool.quiesce pool with
  | _ -> Alcotest.fail "quiesce should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "original exception" "boom-13" msg);
  (match Shard_pool.submit pool ~shard:0 99 with
  | () -> Alcotest.fail "submit should refuse after a failure"
  | exception Shard_pool.Stopped -> ());
  (* Shutdown re-raises the parked failure after joining domains. *)
  (match Shard_pool.shutdown pool with
  | _ -> Alcotest.fail "shutdown should re-raise the shard failure"
  | exception Failure msg ->
      Alcotest.(check string) "parked failure" "boom-13" msg);
  Unix.close latch_r;
  Unix.close latch_w

(* ---- router ---------------------------------------------------------- *)

let test_router_pool_split () =
  let router =
    Router.create ~policy:Router.Size_class ~shards:4 ~capacity:Rat.one
      ~k:Rat.two
  in
  let alive _ = true in
  (* Large items (>= 1/2) own shard 0, MFF's dedicated pool. *)
  Alcotest.(check int) "large -> shard 0" 0
    (Router.route router ~alive ~size:(r 1 2) ~item_id:7);
  Alcotest.(check int) "whole bin -> shard 0" 0
    (Router.route router ~alive ~size:Rat.one ~item_id:8);
  (* Small items spread over 1..shards-1 by size class, never shard 0,
     and identically-sized items land together. *)
  List.iter
    (fun (num, den) ->
      let s1 = Router.route router ~alive ~size:(r num den) ~item_id:1 in
      let s2 = Router.route router ~alive ~size:(r num den) ~item_id:999 in
      Alcotest.(check int)
        (Printf.sprintf "size %d/%d is sticky" num den)
        s1 s2;
      Alcotest.(check bool) "small avoids the large pool" true (s1 >= 1))
    [ (1, 3); (1, 4); (1, 7); (2, 5); (1, 100) ];
  (* A dead nominal shard reroutes to a live one. *)
  let nominal = Router.route router ~alive ~size:(r 1 3) ~item_id:1 in
  let rerouted =
    Router.route router
      ~alive:(fun s -> s <> nominal)
      ~size:(r 1 3) ~item_id:1
  in
  Alcotest.(check bool) "reroutes off a dead shard" true (rerouted <> nominal)

(* ---- fleet vs batch simulator --------------------------------------- *)

let fleet_summary ?(shards = 1) ?(budget = Dbp_repack.Budget.unlimited)
    ~policy instance =
  let cfg =
    {
      (Serve.default_config ()) with
      Serve.shards;
      policy;
      policy_name = policy.Policy.name;
      capacity = Instance.capacity instance;
      budget;
    }
  in
  let fleet = Serve.Fleet.create cfg in
  let events = Event.sorted_array_of_instance instance in
  Array.iteri
    (fun i (e : Event.t) ->
      match e.Event.kind with
      | Event.Arrival ->
          Serve.Fleet.arrive fleet ~seq:i ~now:e.Event.time
            ~size:e.Event.item.Item.size ~item:e.Event.item.Item.id
      | Event.Departure ->
          Serve.Fleet.depart fleet ~now:e.Event.time
            ~item:e.Event.item.Item.id)
    events;
  let placements, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Serve.Fleet.shutdown fleet;
  (placements, su)

let test_one_shard_bit_identical () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 120 }
      in
      List.iter
        (fun (policy : Policy.t) ->
          let batch = Simulator.run ~policy instance in
          let placements, su = fleet_summary ~policy instance in
          Alcotest.(check string)
            (Printf.sprintf "cost string, %s seed %Ld" policy.Policy.name seed)
            (Rat.to_string batch.Packing.total_cost)
            (Rat.to_string su.Serve.su_cost);
          Alcotest.(check int)
            (Printf.sprintf "bins opened, %s seed %Ld" policy.Policy.name seed)
            (Array.length batch.Packing.bins)
            su.Serve.su_bins_opened;
          (* Same engine, same order: the fleet's placements are the
             batch assignment verbatim. *)
          List.iter
            (fun (p : Serve.placement) ->
              Alcotest.(check int)
                (Printf.sprintf "item %d bin" p.Serve.p_item)
                batch.Packing.assignment.(p.Serve.p_item)
                p.Serve.p_bin)
            placements)
        (Algorithms.all ()))
    [ 7L; 42L ]

let prop_one_shard_cost =
  qcheck ~count:40 "one-shard fleet cost bit-identical on random instances"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun (policy : Policy.t) ->
          let batch = Simulator.run ~policy instance in
          let _, su = fleet_summary ~policy instance in
          String.equal
            (Rat.to_string batch.Packing.total_cost)
            (Rat.to_string su.Serve.su_cost))
        [
          Option.get (Algorithms.find "first-fit");
          Option.get (Algorithms.find "best-fit");
          Option.get (Algorithms.find "mff");
        ])

let prop_shard_costs_sum =
  qcheck ~count:40 "fleet cost is the exact sum of per-shard costs"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun shards ->
          let _, su =
            fleet_summary ~shards
              ~policy:(Option.get (Algorithms.find "first-fit"))
              instance
          in
          let sum =
            Array.fold_left Rat.add Rat.zero su.Serve.su_shard_costs
          in
          Rat.equal sum su.Serve.su_cost
          && Array.length su.Serve.su_shard_costs = shards)
        [ 2; 3; 5 ])

(* ---- shard loss ------------------------------------------------------ *)

(* Three shards, one resident item on each: a large one on shard 0 and
   two smalls whose size classes land on shards 1 and 2. *)
let seed_three_shards fleet =
  Serve.Fleet.arrive fleet ~seq:0 ~now:Rat.one ~size:(r 3 4) ~item:0;
  Serve.Fleet.arrive fleet ~seq:1 ~now:Rat.one ~size:(r 1 4) ~item:1;
  Serve.Fleet.arrive fleet ~seq:2 ~now:Rat.one ~size:(r 1 3) ~item:2;
  ignore (Serve.Fleet.quiesce fleet)

let test_shard_loss_migrates () =
  let policy = Option.get (Algorithms.find "first-fit") in
  let cfg =
    { (Serve.default_config ()) with Serve.shards = 3; policy }
  in
  let fleet = Serve.Fleet.create cfg in
  seed_three_shards fleet;
  (* Fail both small shards.  Item 1 (size 1/4, class 4) starts on
     shard 1 and is rerouted to shard 2 when shard 1 dies; when shard
     2 dies both smalls move again to shard 0 — three migrations,
     nothing shed under an unlimited budget, and departures still
     resolve by client id. *)
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 1);
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 2);
  let _, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Alcotest.(check int) "nothing shed" 0 su.Serve.su_shed;
  Alcotest.(check int) "three migrations" 3 su.Serve.su_migrated;
  Alcotest.(check int) "all three still active" 3 su.Serve.su_active;
  Alcotest.(check int) "one live shard left" 1 su.Serve.su_live;
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:0;
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:1;
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:2;
  let _, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Serve.Fleet.shutdown fleet;
  Alcotest.(check int) "all departed" 0 su.Serve.su_active;
  Alcotest.(check int) "departures counted" 3 su.Serve.su_departures

let test_shard_loss_sheds_on_zero_budget () =
  let policy = Option.get (Algorithms.find "first-fit") in
  let cfg =
    {
      (Serve.default_config ()) with
      Serve.shards = 3;
      policy;
      budget = Dbp_repack.Budget.zero;
    }
  in
  let fleet = Serve.Fleet.create cfg in
  seed_three_shards fleet;
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 1);
  ignore (Serve.Fleet.fail_shard fleet ~now:Rat.two 2);
  let _, frozen = Serve.Fleet.snapshot fleet in
  let su = Serve.Fleet.summarize fleet frozen in
  Alcotest.(check int) "no recourse: nothing migrates" 0 su.Serve.su_migrated;
  Alcotest.(check int) "both smalls shed" 2 su.Serve.su_shed;
  Alcotest.(check int) "only the large survives" 1 su.Serve.su_active;
  (* A departure for a shed session is accepted silently — the client
     cannot know its session died with the shard. *)
  Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:1;
  (* But an unknown item is still a protocol error. *)
  (match Serve.Fleet.depart fleet ~now:(Rat.of_int 3) ~item:77 with
  | () -> Alcotest.fail "unknown depart should raise"
  | exception Serve.Protocol _ -> ());
  Serve.Fleet.shutdown fleet

(* Client ids are interned: a client id past the engine's id range and
   the migrations of two shard losses leave every shard engine on ids
   below its session count, the cost is that of the same stream under
   small client ids, and replies still name the client's ids. *)
let test_interned_ids_survive_failover () =
  let instance =
    Dbp_workload.Generator.generate ~seed:11L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 400 }
  in
  let big = (1 lsl 23) + 3 in
  let events = Event.of_instance instance in
  let n = List.length events in
  let run client =
    let cfg =
      {
        (Serve.default_config ()) with
        Serve.shards = 3;
        policy = Option.get (Algorithms.find "first-fit");
        grid_den = Some 10000;
      }
    in
    let fleet = Serve.Fleet.create cfg in
    let placed = ref [] in
    let collect pl = placed := List.rev_append pl !placed in
    List.iteri
      (fun i (e : Event.t) ->
        if i = n / 3 then collect (Serve.Fleet.fail_shard fleet ~now:e.time 2);
        if i = 2 * n / 3 then
          collect (Serve.Fleet.fail_shard fleet ~now:e.time 1);
        let item = client e.item.Item.id in
        (match e.kind with
        | Event.Arrival ->
            Serve.Fleet.arrive fleet ~seq:i ~now:e.time ~size:e.item.Item.size
              ~item
        | Event.Departure -> Serve.Fleet.depart fleet ~now:e.time ~item);
        collect (Serve.Fleet.placements fleet))
      events;
    collect (Serve.Fleet.quiesce fleet);
    let _, frozen = Serve.Fleet.snapshot fleet in
    let su = Serve.Fleet.summarize fleet frozen in
    Serve.Fleet.shutdown fleet;
    (!placed, frozen, su)
  in
  let client id = if id = 3 then big else id in
  let placed, frozen, su = run client in
  let _, _, reference = run Fun.id in
  Alcotest.(check bool) "sessions migrated" true (su.Serve.su_migrated > 0);
  Alcotest.(check int) "nothing shed" 0 su.Serve.su_shed;
  Array.iteri
    (fun k (f : Simulator.Online.Frozen.t) ->
      let ids =
        List.concat_map
          (fun (b : Simulator.Online.Frozen.bin) ->
            List.map snd b.Simulator.Online.Frozen.b_placements)
          f.Simulator.Online.Frozen.s_bins
        |> List.sort compare
      in
      Alcotest.(check bool)
        (Printf.sprintf "shard %d engine ids below its session count" k)
        true
        (List.for_all (fun id -> id >= 0 && id < List.length ids) ids))
    frozen;
  Alcotest.(check string) "fleet cost as with small client ids"
    (Rat.to_string reference.Serve.su_cost)
    (Rat.to_string su.Serve.su_cost);
  Alcotest.(check (list string)) "shard costs as with small client ids"
    (Array.to_list (Array.map Rat.to_string reference.Serve.su_shard_costs))
    (Array.to_list (Array.map Rat.to_string su.Serve.su_shard_costs));
  Alcotest.(check (list int)) "replies carry client ids"
    (List.init (Instance.size instance) client |> List.sort compare)
    (List.map (fun (p : Serve.placement) -> p.Serve.p_item) placed
    |> List.sort compare)

(* Engine ids are recycled: a long stream with few sessions resident at
   once keeps every shard engine's ids below that residency however many
   sessions it serves, with every client id past the engine's id range;
   a one-shard fleet still costs exactly what the batch simulator does;
   and the checkpoint's session map names the clients of the image's
   active items. *)
let test_engine_ids_recycle () =
  let sessions = 5_000 and stay = 3 and base = 1 lsl 23 in
  let size i = if i mod 4 = 0 then r 3 5 else r 1 5 in
  (* Session i arrives at time i and departs at time i + stay, unless
     it is one of the last [keep]. *)
  let run ~shards ~keep =
    let cfg =
      { (Serve.default_config ()) with Serve.shards; grid_den = Some 5 }
    in
    let fleet = Serve.Fleet.create cfg in
    let placed = ref [] in
    for t = 0 to sessions + stay - 1 do
      let d = t - stay in
      if d >= 0 && d < sessions - keep then
        Serve.Fleet.depart fleet ~now:(ri t) ~item:(base + d);
      if t < sessions then
        Serve.Fleet.arrive fleet ~seq:t ~now:(ri t) ~size:(size t)
          ~item:(base + t);
      placed := List.rev_append (Serve.Fleet.placements fleet) !placed
    done;
    let pl, frozen = Serve.Fleet.snapshot fleet in
    Array.iteri
      (fun k (f : Simulator.Online.Frozen.t) ->
        let ids =
          List.concat_map
            (fun (b : Simulator.Online.Frozen.bin) ->
              List.map snd b.Simulator.Online.Frozen.b_placements)
            f.Simulator.Online.Frozen.s_bins
        in
        Alcotest.(check bool)
          (Printf.sprintf "%d shards: shard %d ids below the residency" shards
             k)
          true
          (List.for_all (fun id -> id >= 0 && id < stay) ids))
      frozen;
    Alcotest.(check (list int))
      (Printf.sprintf "%d shards: replies carry client ids" shards)
      (List.init sessions (fun i -> base + i))
      (List.sort compare
         (List.map
            (fun (p : Serve.placement) -> p.Serve.p_item)
            (List.rev_append pl !placed)));
    (fleet, frozen)
  in
  let fleet, frozen = run ~shards:1 ~keep:0 in
  let instance =
    Instance.create ~capacity:Rat.one
      (List.init sessions (fun i ->
           Item.make ~id:i ~size:(size i) ~arrival:(ri i)
             ~departure:(ri (i + stay))))
  in
  let batch = Simulator.run ~policy:First_fit.policy instance in
  Alcotest.(check string) "one shard costs what simulate does"
    (Rat.to_string batch.Packing.total_cost)
    (Rat.to_string (Serve.Fleet.summarize fleet frozen).Serve.su_cost);
  Serve.Fleet.shutdown fleet;
  let fleet, frozen = run ~shards:2 ~keep:stay in
  let prefix = Filename.temp_file "dbp-serve" "ck" in
  let paths = Serve.Fleet.write_checkpoints fleet ~prefix frozen in
  let mapped =
    List.concat
      (List.mapi
         (fun k (f : Simulator.Online.Frozen.t) ->
           let path = Printf.sprintf "%s.shard%d.sessions" prefix k in
           let rows =
             match
               String.split_on_char '\n'
                 (In_channel.with_open_bin path In_channel.input_all)
             with
             | header :: rows ->
                 Alcotest.(check string) "session map header" "engine,client"
                   header;
                 List.filter_map
                   (fun row ->
                     match String.split_on_char ',' row with
                     | [ e; c ] -> Some (int_of_string e, int_of_string c)
                     | _ -> None)
                   rows
             | [] -> []
           in
           let active =
             List.concat_map
               (fun (b : Simulator.Online.Frozen.bin) ->
                 List.map fst b.Simulator.Online.Frozen.b_active)
               f.Simulator.Online.Frozen.s_bins
             |> List.sort compare
           in
           Alcotest.(check (list int))
             (Printf.sprintf "shard %d map covers its active items" k)
             active (List.map fst rows);
           List.map snd rows)
         (Array.to_list frozen))
  in
  List.iter Sys.remove (prefix :: paths);
  Alcotest.(check (list int)) "map names the resident clients"
    (List.init stay (fun i -> base + sessions - stay + i))
    (List.sort compare mapped);
  Serve.Fleet.shutdown fleet

let test_fail_last_shard_rejected () =
  let fleet = Serve.Fleet.create (Serve.default_config ()) in
  (match Serve.Fleet.fail_shard fleet ~now:Rat.one 0 with
  | _ -> Alcotest.fail "killing the last shard should be rejected"
  | exception Invalid_argument _ -> ());
  Serve.Fleet.shutdown fleet

(* ---- protocol validation --------------------------------------------- *)

let test_protocol_rejections () =
  let fleet = Serve.Fleet.create (Serve.default_config ()) in
  Serve.Fleet.arrive fleet ~seq:0 ~now:Rat.one ~size:(r 1 2) ~item:5;
  (match Serve.Fleet.arrive fleet ~seq:1 ~now:Rat.one ~size:(r 1 2) ~item:5 with
  | () -> Alcotest.fail "duplicate arrival should raise"
  | exception Serve.Protocol _ -> ());
  (match
     Serve.Fleet.arrive fleet ~seq:2 ~now:(r 1 2) ~size:(r 1 2) ~item:6
   with
  | () -> Alcotest.fail "time regression should raise"
  | exception Serve.Protocol _ -> ());
  (match Serve.Fleet.arrive fleet ~seq:3 ~now:Rat.two ~size:Rat.two ~item:7 with
  | () -> Alcotest.fail "oversized item should raise"
  | exception Serve.Protocol _ -> ());
  Serve.Fleet.shutdown fleet

(* ---- replay end-to-end ----------------------------------------------- *)

let test_replay_socketpair_end_to_end () =
  let instance =
    Dbp_workload.Generator.generate ~seed:23L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 60 }
  in
  let policy = Option.get (Algorithms.find "first-fit") in
  let cfg = { (Serve.default_config ()) with Serve.policy } in
  let batch = Simulator.run ~policy instance in
  let lines = ref 0 in
  match Serve.replay cfg ~echo:(fun _ -> incr lines) instance with
  | Error msg -> Alcotest.failf "replay failed: %s" msg
  | Ok summary ->
      Alcotest.(check bool) "summary line" true
        (contains ~sub:{|"kind":"summary"|} summary);
      Alcotest.(check bool) "cost bit-identical over the wire" true
        (contains
           ~sub:
             (Printf.sprintf {|"cost":"%s"|}
                (Rat.to_string batch.Packing.total_cost))
           summary);
      Alcotest.(check int) "every arrival answered"
        (Instance.size instance) !lines

(* ---- the daemon over real descriptors -------------------------------- *)

let arrive_line ~seq ~t ~item ~size =
  Printf.sprintf {|{"seq":%d,"t":"%d","kind":"arrive","item":%d,"size":"%s"}|}
    seq t item size
  ^ "\n"

let depart_line ~seq ~t ~item =
  Printf.sprintf
    {|{"seq":%d,"t":"%d","kind":"depart","item":%d,"bin":-1,"held":"0"}|} seq
    t item
  ^ "\n"

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let read_to_eof fd =
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents out
    | n ->
        Buffer.add_subbytes out chunk 0 n;
        go ()
  in
  go ()

let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s)

(* A daemon that has stopped answering must fail the test, not hang it. *)
let with_timeouts fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 10.0

(* A shard's answer wakes the session: with the connection held open
   and nothing more sent, the placement arrives well before the
   session's 0.2 s select timeout.  The first arrival waits out the
   fleet's start-up; the second is the one timed. *)
let test_placement_without_more_input () =
  Alcotest.(check string) "placement line format"
    {|{"kind":"place","seq":1234567,"item":10,"bin":0,"shard":3}|}
    (Serve.placement_line
       { Serve.p_seq = 1234567; p_item = 10; p_bin = 0; p_shard = 3 });
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  with_timeouts b;
  let join =
    Shard_pool.spawn_background (fun () ->
        let r =
          Serve.run_stream (Serve.default_config ()) ~input:a ~output:a ()
        in
        Unix.close a;
        r)
  in
  let chunk = Bytes.create 4096 in
  let answer ~within =
    match Unix.select [ b ] [] [] within with
    | [], _, _ -> None
    | _ -> Some (Bytes.sub_string chunk 0 (Unix.read b chunk 0 4096))
  in
  write_all b (arrive_line ~seq:0 ~t:1 ~item:7 ~size:"1/2");
  Alcotest.(check (option string)) "first placement"
    (Some ({|{"kind":"place","seq":0,"item":7,"bin":0,"shard":0}|} ^ "\n"))
    (answer ~within:5.0);
  write_all b (arrive_line ~seq:1 ~t:2 ~item:8 ~size:"1/4");
  Alcotest.(check (option string)) "second placement within 50 ms"
    (Some ({|{"kind":"place","seq":1,"item":8,"bin":0,"shard":0}|} ^ "\n"))
    (answer ~within:0.05);
  Unix.shutdown b Unix.SHUTDOWN_SEND;
  let rest = lines (read_to_eof b) in
  let r = join () in
  Unix.close b;
  Alcotest.(check bool) "served to the end" true (Result.is_ok r);
  Alcotest.(check bool) "summary follows" true
    (List.exists (contains ~sub:"dbp-serve-summary/1") rest)

(* A client that hangs up mid-stream, leaving answers unread, ends only
   its own connection: the daemon keeps its fleet and serves the next
   client, which gets a well-formed summary and none of the first
   client's answers. *)
let test_hangup_ends_only_that_connection () =
  let path = Filename.temp_file "dbp-serve" ".sock" in
  Sys.remove path;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 4;
  (* As the CLI does through [Serve.install_sigterm]: a write to the
     hung-up socket must fail with EPIPE, not kill the process. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let stop = ref false in
  let cfg = { (Serve.default_config ()) with Serve.shards = 2 } in
  let join =
    Shard_pool.spawn_background (fun () ->
        Serve.run_listener cfg ~should_stop:(fun () -> !stop) lfd)
  in
  let connect () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    with_timeouts fd;
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  (* Client 1: 20k arrivals (each departing three later), never read. *)
  let c1 = connect () in
  let stream = Buffer.create (1 lsl 20) in
  let seq = ref 0 in
  let line l =
    Buffer.add_string stream (l ~seq:!seq);
    incr seq
  in
  for i = 0 to 19_999 do
    line (arrive_line ~t:(i + 1) ~item:i ~size:"1/100");
    if i >= 3 then line (depart_line ~t:(i + 1) ~item:(i - 3))
  done;
  write_all c1 (Buffer.contents stream);
  Unix.close c1;
  (* Client 2: later times, fresh ids, reads to the end. *)
  let c2 = connect () in
  let base = 1_000_000 in
  write_all c2
    (String.concat ""
       [
         arrive_line ~seq:0 ~t:30_000 ~item:base ~size:"1/2";
         arrive_line ~seq:1 ~t:30_000 ~item:(base + 1) ~size:"1/3";
         depart_line ~seq:2 ~t:30_001 ~item:base;
       ]);
  Unix.shutdown c2 Unix.SHUTDOWN_SEND;
  let got = lines (read_to_eof c2) in
  Unix.close c2;
  stop := true;
  let r = join () in
  Unix.close lfd;
  Sys.remove path;
  Sys.set_signal Sys.sigpipe sigpipe;
  Alcotest.(check bool) "daemon still up after the hang-up" true
    (Result.is_ok r);
  let places, others =
    List.partition (contains ~sub:{|"kind":"place"|}) got
  in
  Alcotest.(check (list (option int))) "client 2 gets its own answers only"
    [ Some base; Some (base + 1) ]
    (List.sort compare @@ List.map
       (fun l ->
         match Dbp_obs.Trace_event.parse_flat_object l with
         | Ok fields -> (
             match List.assoc_opt "item" fields with
             | Some (Dbp_obs.Trace_event.Int i) -> Some i
             | _ -> None)
         | Error _ -> None)
       places);
  match others with
  | [ summary ] -> (
      match Dbp_obs.Trace_event.parse_flat_object summary with
      | Ok fields ->
          Alcotest.(check bool) "summary schema" true
            (List.assoc_opt "schema" fields
            = Some (Dbp_obs.Trace_event.Str "dbp-serve-summary/1"))
      | Error e -> Alcotest.failf "malformed summary %S: %s" summary e)
  | _ -> Alcotest.failf "expected one summary line, got %d" (List.length others)

(* The in-process fleet stages build a fleet per round, so neither a
   session nor a bare fleet may leave a descriptor behind. *)
let test_descriptor_hygiene () =
  if Sys.file_exists "/proc/self/fd" then begin
    let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
    let cfg = { (Serve.default_config ()) with Serve.shards = 2 } in
    let one_session () =
      let a, b =
        Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
      in
      write_all b
        (arrive_line ~seq:0 ~t:1 ~item:0 ~size:"1/2"
        ^ depart_line ~seq:1 ~t:2 ~item:0);
      Unix.shutdown b Unix.SHUTDOWN_SEND;
      let r = Serve.run_stream cfg ~input:a ~output:a () in
      Unix.close a;
      ignore (read_to_eof b);
      Unix.close b;
      Alcotest.(check bool) "session served" true (Result.is_ok r)
    in
    let before = open_fds () in
    for _ = 1 to 50 do
      one_session ()
    done;
    Alcotest.(check int) "50 sessions leave no descriptor" before
      (open_fds ());
    let fleet = Serve.Fleet.create cfg in
    Alcotest.(check int) "a fleet without a session opens no pipe" before
      (open_fds ());
    Serve.Fleet.shutdown fleet;
    Alcotest.(check int) "nor closes anything" before (open_fds ());
    let fleet = Serve.Fleet.create cfg in
    ignore (Serve.Fleet.wake_fd fleet);
    Alcotest.(check int) "arming opens one pipe" (before + 2) (open_fds ());
    Serve.Fleet.shutdown fleet;
    Alcotest.(check int) "shutdown closes it" before (open_fds ())
  end


let suite =
  [
    Alcotest.test_case "shard pool FIFO per shard" `Quick
      test_pool_fifo_per_shard;
    Alcotest.test_case "shard pool batch drain" `Quick
      test_pool_batches_survive_idle;
    Alcotest.test_case "shard pool failure contract" `Quick
      test_pool_failure_contract;
    Alcotest.test_case "router pool split" `Quick test_router_pool_split;
    Alcotest.test_case "one shard bit-identical" `Quick
      test_one_shard_bit_identical;
    Alcotest.test_case "shard loss migrates within budget" `Quick
      test_shard_loss_migrates;
    Alcotest.test_case "shard loss sheds on zero budget" `Quick
      test_shard_loss_sheds_on_zero_budget;
    Alcotest.test_case "interned ids survive failover" `Quick
      test_interned_ids_survive_failover;
    Alcotest.test_case "engine ids recycle" `Quick test_engine_ids_recycle;
    Alcotest.test_case "last shard cannot fail" `Quick
      test_fail_last_shard_rejected;
    Alcotest.test_case "protocol rejections" `Quick test_protocol_rejections;
    Alcotest.test_case "replay socketpair end-to-end" `Quick
      test_replay_socketpair_end_to_end;
    Alcotest.test_case "placement sent without further input" `Quick
      test_placement_without_more_input;
    Alcotest.test_case "hang-up ends only that connection" `Quick
      test_hangup_ends_only_that_connection;
    Alcotest.test_case "descriptor hygiene" `Quick test_descriptor_hygiene;
    prop_one_shard_cost;
    prop_shard_costs_sum;
  ]
