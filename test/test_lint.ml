(* Fixture tests for the lint pass (R1..R7): every rule gets a
   must-flag / must-not-flag pair, fed through [Lint.run_sources] with
   paths mirroring the repo layout (the rules scope on path infixes
   like "lib/core/", so fixture paths reproduce the real scoping).
   Plus baseline bookkeeping, exit codes and the parse-failure path. *)

open Dbp_lint

let rules_fired path source =
  (Lint.run_sources [ (path, source) ]).Lint.findings
  |> List.map (fun f -> f.Finding.rule)
  |> List.sort_uniq String.compare

let check_fires rule path source =
  Alcotest.(check bool)
    (Printf.sprintf "%s fires at %s" rule path)
    true
    (List.mem rule (rules_fired path source))

let check_silent rule path source =
  Alcotest.(check bool)
    (Printf.sprintf "%s silent at %s" rule path)
    false
    (List.mem rule (rules_fired path source))

(* ---- R1: no floats in the exact-arithmetic libraries ---------------- *)

let test_r1 () =
  check_fires "R1" "lib/core/fixture.ml" "let x = 1.5\n";
  check_fires "R1" "lib/core/fixture.ml" "let f a b = a +. b\n";
  check_fires "R1" "lib/adversary/fixture.ml" "let g x = Float.abs x\n";
  check_fires "R1" "lib/analysis/fixture.ml" "let h (x : float) = x\n";
  check_fires "R1" "lib/core/fixture.ml" "let s x = sqrt x\n";
  (* floats are legitimate outside the exact libraries *)
  check_silent "R1" "lib/workload/fixture.ml" "let x = 1.5\n";
  check_silent "R1" "bin/fixture.ml" "let x = 1.5\n";
  (* the display-only analysis modules are exempt *)
  check_silent "R1" "lib/analysis/stats.ml" "let x = 1.5\n";
  (* converting *out* of the exact world is the sanctioned direction *)
  check_silent "R1" "lib/core/fixture.ml" "let f x = Rat.to_float x\n"

(* ---- R2: no float-literal equality, anywhere ------------------------ *)

let test_r2 () =
  check_fires "R2" "lib/workload/fixture.ml" "let bad r = r = 0.0\n";
  check_fires "R2" "bin/fixture.ml" "let bad r = r <> 1.5\n";
  check_silent "R2" "lib/workload/fixture.ml" "let ok r = r <= 0.0\n";
  check_silent "R2" "lib/workload/fixture.ml" "let ok r = Float.equal r 0.0\n"

(* ---- R3: no polymorphic compare where a Rat.t could flow ------------ *)

let test_r3 () =
  check_fires "R3" "lib/opt/fixture.ml" "let f a = a = Rat.zero\n";
  check_fires "R3" "lib/opt/fixture.ml" "let f xs = List.sort compare xs\n";
  check_fires "R3" "lib/opt/fixture.ml" "let f a b = Stdlib.compare a b\n";
  check_fires "R3" "lib/opt/fixture.ml" "let h x = Hashtbl.hash x\n";
  (* inside Rat.(...) the (=) is Rat's own exact comparison *)
  check_silent "R3" "lib/opt/fixture.ml" "let f a b = Rat.(a = b)\n";
  (* escaping accessors return non-Rat values *)
  check_silent "R3" "lib/opt/fixture.ml" "let f x = Rat.sign x = 0\n";
  (* a local compare definition shadows the polymorphic one *)
  check_silent "R3" "lib/opt/fixture.ml"
    "let compare a b = Int.compare a b\nlet f xs = List.sort compare xs\n";
  check_silent "R3" "lib/opt/fixture.ml" "let f a b = Rat.equal a b\n";
  (* shadowing is scoped to the binding's extent, not a file-global
     watermark: a compare local to [f] does not license [g] below *)
  check_fires "R3" "lib/opt/fixture.ml"
    "let f xs = let compare a b = Int.compare a b in List.sort compare xs\n\
     let g ys = List.sort compare ys\n";
  check_silent "R3" "lib/opt/fixture.ml"
    "let f xs = let compare a b = Int.compare a b in List.sort compare xs\n";
  (* a function parameter named compare shadows inside that function
     only *)
  check_fires "R3" "lib/opt/fixture.ml"
    "let f compare xs = List.sort compare xs\n\
     let g ys = List.sort compare ys\n";
  check_silent "R3" "lib/opt/fixture.ml"
    "let f compare xs = List.sort compare xs\n";
  (* a match case binding compare shadows its own right-hand side only *)
  check_silent "R3" "lib/opt/fixture.ml"
    "let f x xs = match x with Some compare -> List.sort compare xs | None \
     -> []\n"

(* ---- R4: no catch-all exception handlers ---------------------------- *)

let test_r4 () =
  check_fires "R4" "lib/opt/fixture.ml" "let f g = try g () with _ -> 0\n";
  check_silent "R4" "lib/opt/fixture.ml"
    "let f g = try g () with Not_found -> 0\n";
  check_silent "R4" "lib/opt/fixture.ml" "let f g = try g () with e -> raise e\n"

(* ---- R5: domain-parallel primitives confined to the runner ---------- *)

let test_r5 () =
  check_fires "R5" "lib/core/fixture.ml"
    "let d () = Domain.spawn (fun () -> 1)\n";
  check_fires "R5" "lib/opt/fixture.ml" "let a = Atomic.make 0\n";
  check_fires "R5" "bin/fixture.ml" "let m = Mutex.create ()\n";
  check_silent "R5" "lib/experiments/registry.ml"
    "let d () = Domain.spawn (fun () -> 1)\n"

(* ---- R6: no linear list scans in the hot-path engine modules -------- *)

let test_r6 () =
  check_fires "R6" "lib/core/simulator.ml" "let f x xs = List.mem x xs\n";
  check_fires "R6" "lib/core/packing.ml" "let f k l = List.assoc k l\n";
  (* fit.ml's O(open-bins) policy scan is by design; analysis is cold *)
  (* the per-draw workload sampler is hot too (O(catalog) List.nth
     regression) *)
  check_fires "R6" "lib/workload/generator.ml" "let f n xs = List.nth xs n\n";
  check_silent "R6" "lib/core/fit.ml" "let f x xs = List.mem x xs\n";
  check_silent "R6" "lib/analysis/fixture.ml" "let f x xs = List.mem x xs\n";
  (* spec construction/validation is cold: workload scoping is
     generator.ml only *)
  check_silent "R6" "lib/workload/spec.ml" "let f x xs = List.mem x xs\n";
  check_silent "R6" "lib/core/simulator.ml" "let f x xs = List.map x xs\n";
  (* the Rat.sum extension: a list fold of rationals on the event path *)
  check_fires "R6" "lib/core/packing.ml" "let f xs = Rat.sum xs\n";
  check_fires "R6" "lib/repack/budget.ml" "let f xs = Rat.sum xs\n";
  check_silent "R6" "lib/analysis/fixture.ml" "let f xs = Rat.sum xs\n";
  (* the fault injector's per-event degradation ladder is hot; plan
     construction is cold *)
  check_fires "R6" "lib/faults/injector.ml" "let f xs = Rat.sum xs\n";
  check_fires "R6" "lib/faults/injector.ml" "let f x xs = List.mem x xs\n";
  check_silent "R6" "lib/faults/fault_plan.ml" "let f x xs = List.mem x xs\n"

(* ---- R7: fixed-point arithmetic confined to num + engine ------------ *)

let test_r7 () =
  check_fires "R7" "lib/core/packing.ml" "let f s r = Fixed.of_rat s r\n";
  check_fires "R7" "lib/opt/fixture.ml" "let f s v = Fixed.to_rat s v\n";
  check_fires "R7" "bin/fixture.ml" "let f s v = Dbp_num.Fixed.to_rat s v\n";
  check_fires "R7" "lib/repack/runner.ml" "let f (s : Fixed.scale) = s\n";
  (* the numeric kernel and the two-track engine own the representation *)
  check_silent "R7" "lib/num/fixed.ml" "let f s r = Fixed.of_rat s r\n";
  check_silent "R7" "lib/core/simulator.ml" "let f s r = Fixed.of_rat s r\n";
  (* grid plumbing through the engine API never names Fixed *)
  check_silent "R7" "lib/repack/runner.ml"
    "let f i = Simulator.grid_of_instance i\n"

(* ---- scoping predicates, as the rules see the real tree ------------- *)

let test_scoping () =
  Alcotest.(check bool) "r1 core" true (Rules.r1_applies "lib/core/bin.ml");
  Alcotest.(check bool)
    "r1 display exempt" false
    (Rules.r1_applies "lib/analysis/stats.ml");
  Alcotest.(check bool) "r1 cli" false (Rules.r1_applies "bin/main.ml");
  Alcotest.(check bool)
    "r5 registry" true
    (Rules.r5_allowlisted "lib/experiments/registry.ml");
  Alcotest.(check bool)
    "r5 elsewhere" false
    (Rules.r5_allowlisted "lib/experiments/e1_figure2.ml");
  Alcotest.(check bool) "r6 hot" true (Rules.r6_applies "lib/core/simulator.ml");
  Alcotest.(check bool) "r6 fit" false (Rules.r6_applies "lib/core/fit.ml");
  Alcotest.(check bool)
    "r6 injector" true
    (Rules.r6_applies "lib/faults/injector.ml");
  Alcotest.(check bool)
    "r6 fault plan" false
    (Rules.r6_applies "lib/faults/fault_plan.ml");
  Alcotest.(check bool)
    "r7 num" true
    (Rules.r7_allowlisted "lib/num/fixed.ml");
  Alcotest.(check bool)
    "r7 engine" true
    (Rules.r7_allowlisted "lib/core/simulator.ml");
  Alcotest.(check bool)
    "r7 elsewhere" false
    (Rules.r7_allowlisted "lib/core/packing.ml")

(* ---- one violation of each rule across a fixture tree --------------- *)

let fixture_tree =
  [
    ("lib/core/fx_r1.ml", "let x = 1.5\n");
    ("lib/workload/fx_r2.ml", "let bad r = r = 0.0\n");
    ("lib/opt/fx_r3.ml", "let f a = a = Rat.zero\n");
    ("lib/opt/fx_r4.ml", "let f g = try g () with _ -> 0\n");
    ("lib/faults/fx_r5.ml", "let a = Atomic.make 0\n");
    ("lib/core/simulator.ml", "let f x xs = List.mem x xs\n");
    ("lib/opt/fx_r7.ml", "let f s r = Fixed.of_rat s r\n");
  ]

let test_all_rules_fire () =
  let report = Lint.run_sources fixture_tree in
  let fired =
    report.Lint.findings
    |> List.map (fun f -> f.Finding.rule)
    |> List.sort_uniq String.compare
  in
  Alcotest.(check (list string))
    "every rule fires exactly once over the fixture tree"
    [ "R1"; "R2"; "R3"; "R4"; "R5"; "R6"; "R7" ]
    fired;
  Alcotest.(check int) "seven findings" 7 (List.length report.Lint.findings);
  Alcotest.(check int) "seven files" 7 report.Lint.files_scanned;
  Alcotest.(check int) "strict fails" 1 (Lint.exit_code ~strict:true report)

(* ---- baseline bookkeeping ------------------------------------------- *)

let test_baseline () =
  let path = "lib/workload/fixture.ml" in
  let src = "let bad r = r = 0.0\n" in
  (match (Lint.run_sources [ (path, src) ]).Lint.findings with
  | [ f ] ->
      let base = Finding.fingerprint f in
      Alcotest.(check string)
        "fingerprint shape"
        (Printf.sprintf "R2|%s|m%s" path (Finding.message_hash f))
        base;
      let fp =
        match Lint.fingerprints [ f ] with
        | [ (_, fp) ] -> fp
        | _ -> Alcotest.fail "one indexed fingerprint"
      in
      Alcotest.(check string) "occurrence index" (base ^ "|0") fp;
      let suppressed = Lint.run_sources ~baseline:[ fp ] [ (path, src) ] in
      Alcotest.(check int)
        "suppressed" 0
        (List.length suppressed.Lint.findings);
      Alcotest.(check int) "baselined" 1 suppressed.Lint.baselined;
      Alcotest.(check (list string)) "no stale" [] suppressed.Lint.stale_baseline;
      Alcotest.(check int) "not legacy" 0 suppressed.Lint.legacy_baseline;
      Alcotest.(check int) "exit ok" 0 (Lint.exit_code suppressed);
      Alcotest.(check int)
        "strict exit ok" 0
        (Lint.exit_code ~strict:true suppressed)
  | fs -> Alcotest.failf "expected one R2 finding, got %d" (List.length fs));
  let stale =
    Lint.run_sources ~baseline:[ "R2|gone.ml|1|0" ] [ (path, "let ok = 1\n") ]
  in
  Alcotest.(check (list string))
    "stale entry reported"
    [ "R2|gone.ml|1|0" ]
    stale.Lint.stale_baseline

(* The fingerprint survives edits above the finding (the point of the
   position-independent scheme), and the old positional format still
   suppresses — with the deprecation counter ticking. *)
let test_fingerprint_stability () =
  let path = "lib/workload/fixture.ml" in
  let fp_of src =
    match (Lint.run_sources [ (path, src) ]).Lint.findings with
    | [ f ] -> Finding.fingerprint f
    | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs)
  in
  Alcotest.(check string)
    "stable under edits above"
    (fp_of "let bad r = r = 0.0\n")
    (fp_of "(* new comment *)\nlet unrelated = 1\nlet bad r = r = 0.0\n");
  (* same message twice in one file: occurrence indices disambiguate *)
  (match
     Lint.fingerprints
       (Lint.run_sources
          [ (path, "let bad r = r = 0.0\nlet bad2 r = r = 0.0\n") ])
         .Lint.findings
   with
  | [ (_, fp0); (_, fp1) ] ->
      Alcotest.(check bool) "distinct" true (fp0 <> fp1);
      Alcotest.(check string) "first indexed 0" "|0"
        (String.sub fp0 (String.length fp0 - 2) 2);
      Alcotest.(check string) "second indexed 1" "|1"
        (String.sub fp1 (String.length fp1 - 2) 2)
  | fps -> Alcotest.failf "expected two fingerprints, got %d" (List.length fps));
  (* legacy positional entries still match, flagged as deprecated *)
  let legacy =
    Lint.run_sources
      ~baseline:[ "R2|lib/workload/fixture.ml|1|12" ]
      [ (path, "let bad r = r = 0.0\n") ]
  in
  Alcotest.(check int) "legacy suppresses" 0 (List.length legacy.Lint.findings);
  Alcotest.(check int) "legacy counted" 1 legacy.Lint.legacy_baseline;
  Alcotest.(check (list string)) "legacy not stale" [] legacy.Lint.stale_baseline;
  Alcotest.(check bool)
    "legacy format recognised" true
    (Finding.is_legacy_fingerprint "R2|lib/workload/fixture.ml|1|12");
  Alcotest.(check bool)
    "new format not legacy" false
    (Finding.is_legacy_fingerprint "R2|lib/workload/fixture.ml|mdeadbeef|0")

(* ---- exit codes track severity -------------------------------------- *)

let test_exit_codes () =
  let warn =
    Lint.run_sources [ ("lib/opt/fixture.ml", "let f g = try g () with _ -> 0\n") ]
  in
  Alcotest.(check int) "warning passes default" 0 (Lint.exit_code warn);
  Alcotest.(check int) "warning fails strict" 1 (Lint.exit_code ~strict:true warn);
  let err = Lint.run_sources [ ("lib/core/fixture.ml", "let x = 1.5\n") ] in
  Alcotest.(check int) "error fails default" 1 (Lint.exit_code err);
  let clean = Lint.run_sources [ ("lib/core/fixture.ml", "let x = Rat.zero\n") ] in
  Alcotest.(check int) "clean passes strict" 0 (Lint.exit_code ~strict:true clean)

(* ---- unparseable sources become findings, not crashes --------------- *)

let test_parse_failure () =
  match (Lint.run_sources [ ("lib/core/broken.ml", "let = in\n") ]).Lint.findings with
  | [ f ] ->
      Alcotest.(check string) "parse rule" "parse" f.Finding.rule;
      Alcotest.(check string) "path kept" "lib/core/broken.ml" f.Finding.path
  | fs -> Alcotest.failf "expected one parse finding, got %d" (List.length fs)

let suite =
  [
    Alcotest.test_case "R1 no floats in exact core" `Quick test_r1;
    Alcotest.test_case "R2 no float-literal equality" `Quick test_r2;
    Alcotest.test_case "R3 no polymorphic compare on Rat" `Quick test_r3;
    Alcotest.test_case "R4 no catch-all try" `Quick test_r4;
    Alcotest.test_case "R5 domain primitives confined" `Quick test_r5;
    Alcotest.test_case "R6 no list scans in hot path" `Quick test_r6;
    Alcotest.test_case "R7 fixed-point confined" `Quick test_r7;
    Alcotest.test_case "rule scoping predicates" `Quick test_scoping;
    Alcotest.test_case "all rules fire on fixture tree" `Quick test_all_rules_fire;
    Alcotest.test_case "baseline suppresses and reports stale" `Quick test_baseline;
    Alcotest.test_case "fingerprints are position-independent" `Quick
      test_fingerprint_stability;
    Alcotest.test_case "exit codes track severity" `Quick test_exit_codes;
    Alcotest.test_case "parse failures become findings" `Quick test_parse_failure;
  ]
