(* The runtime invariant auditor: audit mode must be a pure observer
   (audited runs bit-identical to unaudited ones across every policy,
   including under fault injection), and deliberately corrupted engine
   or packing state must raise [Audit_violation] with the right
   invariant family. *)

open Dbp_num
open Dbp_core
open Test_util

(* ---- audit mode never steers the engine ----------------------------- *)

let audit_seeds = [ 11L; 29L; 43L ]

let test_audit_transparent () =
  List.iter
    (fun seed ->
      let instance =
        Dbp_workload.Generator.generate ~seed
          { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 250 }
      in
      List.iter
        (fun policy ->
          let audited = Simulator.run ~audit:true ~policy instance in
          let plain = Simulator.run ~audit:false ~policy instance in
          if not (Test_engine.packing_equal audited plain) then
            Alcotest.failf "audited run diverges under %s (seed %Ld)"
              policy.Policy.name seed)
        (Algorithms.all ()))
    audit_seeds

let prop_audit_transparent =
  qcheck ~count:40 "audited runs bit-identical on random instances"
    (instance_gen ()) (fun instance ->
      List.for_all
        (fun policy ->
          Test_engine.packing_equal
            (Simulator.run ~audit:true ~policy instance)
            (Simulator.run ~audit:false ~policy instance))
        (Algorithms.all ()))

(* Crash storms through the injector, audited: every fail_bin /
   re-dispatch cycle passes the full invariant sweep, and the audited
   faulty packing matches the unaudited one. *)
let test_audit_under_faults () =
  let instance =
    Dbp_workload.Generator.generate ~seed:7L
      { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 150 }
  in
  let horizon = Interval.hi (Instance.packing_period instance) in
  let plan = Dbp_faults.Fault_plan.poisson_crashes ~seed:5L ~rate:1.5 ~horizon in
  List.iter
    (fun policy ->
      let audited = Dbp_faults.Injector.run ~audit:true ~plan ~policy instance in
      let plain = Dbp_faults.Injector.run ~audit:false ~plan ~policy instance in
      if
        not
          (Test_engine.packing_equal audited.Dbp_faults.Injector.packing
             plain.Dbp_faults.Injector.packing)
      then
        Alcotest.failf "audited faulty run diverges under %s"
          policy.Policy.name)
    (Algorithms.all ())

(* ---- corruption is caught, by invariant family ---------------------- *)

(* Every corruption test runs on both store instances: the fixed one
   (grid 1/8 holds every value below) and the Rat one. *)
let instances =
  [ ("fixed", Simulator.grid_of_den 8); ("exact", None) ]

let engine_with_items grid =
  let t =
    Simulator.Online.create ?grid ~policy:First_fit.policy ~capacity:Rat.one ()
  in
  ignore (Simulator.Online.arrive t ~now:Rat.zero ~size:(r 1 2) ~item_id:0);
  ignore (Simulator.Online.arrive t ~now:(r 1 2) ~size:(r 1 4) ~item_id:1);
  t

let expect_violation ~family name f =
  match f () with
  | () ->
      Alcotest.failf "%s: corruption not caught (wanted a %s violation)" name
        family
  | exception Audit.Audit_violation v ->
      Alcotest.(check string) (name ^ ": violation family") family v.Audit.check

let corruption_caught ~family damage () =
  List.iter
    (fun (name, grid) ->
      let t = engine_with_items grid in
      Alcotest.(check string) "instance" name (Simulator.Online.track_name t);
      Simulator.Online.corrupt_for_test t damage;
      expect_violation ~family name (fun () -> Simulator.Online.audit t))
    instances

let test_healthy_engine_passes () =
  List.iter
    (fun (_, grid) -> Simulator.Online.audit (engine_with_items grid))
    instances

let test_corrupt_level =
  corruption_caught ~family:"bin"
    (Simulator.Online.Bump_level { bin = 0; by = r 1 8 })

let test_corrupt_view_cache =
  corruption_caught ~family:"bin" (Simulator.Online.Stale_view 0)

(* Closing a bin behind the slot array's back surfaces in the slot
   checks, which run before the per-bin recompute. *)
let test_corrupt_closed_flag =
  corruption_caught ~family:"open-index" (Simulator.Online.Close_flag 0)

(* Item 0 leaves its bin consistently (level, count and view patched
   up), so only the item totals disagree: the layered sweep must still
   catch it. *)
let test_corrupt_item_tracking =
  corruption_caught ~family:"item-bin" (Simulator.Online.Untrack_item 0)

let test_corrupt_total_cost () =
  let instance =
    Instance.create ~capacity:Rat.one
      [
        Item.make ~id:0 ~size:(r 1 2) ~arrival:Rat.zero ~departure:Rat.one;
        Item.make ~id:1 ~size:(r 1 4) ~arrival:(r 1 2) ~departure:(r 3 2);
      ]
  in
  let packing = Simulator.run ~policy:First_fit.policy instance in
  Audit.check_packing packing;
  let tampered =
    { packing with Packing.total_cost = Rat.add packing.Packing.total_cost Rat.one }
  in
  expect_violation ~family:"cost-conservation" "packing" (fun () ->
      Audit.check_packing tampered)

(* ---- DBP_AUDIT environment toggle ----------------------------------- *)

let test_env_toggle () =
  let original = Sys.getenv_opt "DBP_AUDIT" in
  Unix.putenv "DBP_AUDIT" "1";
  Alcotest.(check bool) "1 enables" true (Audit.enabled_from_env ());
  Unix.putenv "DBP_AUDIT" "on";
  Alcotest.(check bool) "on enables" true (Audit.enabled_from_env ());
  Unix.putenv "DBP_AUDIT" "0";
  Alcotest.(check bool) "0 disables" false (Audit.enabled_from_env ());
  Unix.putenv "DBP_AUDIT" (Option.value original ~default:"")

let suite =
  [
    Alcotest.test_case "audited runs identical (generated)" `Quick
      test_audit_transparent;
    prop_audit_transparent;
    Alcotest.test_case "audited runs identical under faults" `Quick
      test_audit_under_faults;
    Alcotest.test_case "healthy engine passes" `Quick test_healthy_engine_passes;
    Alcotest.test_case "corrupted level caught" `Quick test_corrupt_level;
    Alcotest.test_case "corrupted view cache caught" `Quick
      test_corrupt_view_cache;
    Alcotest.test_case "corrupted closed flag caught" `Quick
      test_corrupt_closed_flag;
    Alcotest.test_case "corrupted item tracking caught" `Quick
      test_corrupt_item_tracking;
    Alcotest.test_case "tampered total cost caught" `Quick
      test_corrupt_total_cost;
    Alcotest.test_case "DBP_AUDIT env toggle" `Quick test_env_toggle;
  ]
