(* Fixture tests for the typed lint tier (T1..T4): every rule gets a
   must-flag / must-not-flag pair, typechecked in memory against the
   stdlib environment through [Typed_lint.run_typed_sources].  Fixtures
   carry their own stub modules (a local [Rat]/[Fixed]) — the typed
   rules key on the last module component of each resolved path, so a
   stub [Rat.t] and the real [Dbp_num__Rat.t] are the same key.  Paths
   mirror the repo layout, exactly as in the syntactic tier's tests.

   Two regressions pin the tier's reason to exist: T1 sees a Rat
   buried in a tuple type where the syntactic R3 (which needs a [Rat]
   token in the expression) is blind, and T2 follows a
   [type t = Fixed.t] alias to use sites where R7 (which needs a
   [Fixed] token) is blind. *)

open Dbp_lint

let typed_findings path source =
  (Typed_lint.run_typed_sources [ (path, source) ]).Lint.findings

let rules_fired path source =
  typed_findings path source
  |> List.map (fun f -> f.Finding.rule)
  |> List.sort_uniq String.compare

let no_typecheck_errors name fired =
  Alcotest.(check bool)
    (Printf.sprintf "%s: fixture typechecks" name)
    false
    (List.mem "typecheck" fired)

let check_fires rule path source =
  let fired = rules_fired path source in
  no_typecheck_errors rule fired;
  Alcotest.(check bool)
    (Printf.sprintf "%s fires at %s" rule path)
    true (List.mem rule fired)

let check_silent rule path source =
  let fired = rules_fired path source in
  no_typecheck_errors rule fired;
  Alcotest.(check bool)
    (Printf.sprintf "%s silent at %s" rule path)
    false (List.mem rule fired)

let rat_stub =
  "module Rat = struct\n\
  \  type t = { num : int; den : int }\n\
  \  let zero = { num = 0; den = 1 }\n\
  \  let equal a b = a.num * b.den = b.num * a.den\n\
  \  let add a b = { num = (a.num * b.den) + (b.num * a.den); den = a.den * \
   b.den }\n\
   end\n"

let fixed_stub = "module Fixed = struct type t = int type scale = int end\n"

(* ---- T1: polymorphic compare at a type containing Rat.t ------------- *)

let test_t1 () =
  check_fires "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (a : Rat.t) b = a = b\n");
  check_fires "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (xs : Rat.t list) ys = compare xs ys\n");
  check_fires "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (x : Rat.t option) = Hashtbl.hash x\n");
  check_fires "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (xs : (int * Rat.t) list) = List.sort compare xs\n");
  (* typed comparisons and non-Rat instantiations are fine *)
  check_silent "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (a : Rat.t) b = Rat.equal a b\n");
  check_silent "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (a : int) b = a = b\n");
  (* comparison against a constant constructor never recurses into the
     rationals inside: the [xs = []] / [o <> None] idiom stays legal *)
  check_silent "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let is_empty (xs : Rat.t list) = xs = []\n");
  check_silent "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (o : Rat.t option) = o <> None\n");
  (* ... but a partial application of (=) at a Rat type gets no out *)
  check_fires "T1" "lib/opt/fixture.ml"
    (rat_stub ^ "let f (xs : Rat.t list) = List.exists (( = ) Rat.zero) xs\n");
  (* a locally shadowed compare resolves to a non-Stdlib path *)
  check_silent "T1" "lib/opt/fixture.ml"
    (rat_stub
   ^ "let f (xs : Rat.t list) =\n\
     \  let compare (a : Rat.t) (b : Rat.t) =\n\
     \    Stdlib.compare (a.Rat.num * b.Rat.den) (b.Rat.num * a.Rat.den)\n\
     \  in\n\
     \  List.sort compare xs\n")

(* The DVBP vectors: [Vec.t] is a [Rat.t array] under the hood, so a
   polymorphic comparison on whole vectors (or on the vector-engine
   views that embed them) is exactly the array-buried-Rat case the
   typed tier exists to catch. *)
let test_t1_vec () =
  let vec_stub = rat_stub ^ "module Vec = struct type t = Rat.t array end\n" in
  check_fires "T1" "lib/opt/fixture.ml"
    (vec_stub ^ "let f (a : Vec.t) b = a = b\n");
  check_fires "T1" "lib/opt/fixture.ml"
    (vec_stub
   ^ "type view = { id : int; level : Vec.t }\n"
   ^ "let same (a : view) (b : view) = compare a b\n");
  (* component-wise exact comparison is the sanctioned spelling *)
  check_silent "T1" "lib/opt/fixture.ml"
    (vec_stub
   ^ "let f (a : Vec.t) (b : Vec.t) =\n\
     \  Array.length a = Array.length b\n\
     \  && Array.for_all2 Rat.equal a b\n")

(* The tier-defining regression: a Rat two levels deep in the inferred
   type, with no [Rat] token anywhere near the comparison — the
   syntactic R3 is blind, T1 is not. *)
let test_t1_catches_what_r3_misses () =
  let path = "lib/opt/fixture.ml" in
  let source =
    rat_stub ^ "type labelled = int * Rat.t\n"
    ^ "let same (a : labelled) (b : labelled) = a = b\n"
  in
  let syntactic =
    (Lint.run_sources [ (path, source) ]).Lint.findings
    |> List.map (fun f -> f.Finding.rule)
  in
  Alcotest.(check bool)
    "R3 misses the tuple-buried Rat" false
    (List.mem "R3" syntactic);
  check_fires "T1" path source

(* ---- T2: Fixed.t escaping the numeric kernel ------------------------- *)

let test_t2 () =
  check_fires "T2" "lib/repack/fixture.ml"
    (fixed_stub ^ "let f (x : Fixed.t) = x\n");
  check_fires "T2" "lib/opt/fixture.ml"
    (fixed_stub ^ "type slot = { raw : Fixed.t }\n");
  (* the allowlist: the numeric kernel and the two-track engine *)
  check_silent "T2" "lib/num/fixture.ml"
    (fixed_stub ^ "let f (x : Fixed.t) = x\n");
  check_silent "T2" "lib/core/simulator.ml"
    (fixed_stub ^ "let f (x : Fixed.t) = x\n");
  (* Fixed.scale is the sanctioned opaque grid handle *)
  check_silent "T2" "lib/repack/fixture.ml"
    (fixed_stub ^ "let f (s : Fixed.scale) = s\n")

(* The second tier-defining regression: [type t = Fixed.t] aliases.
   R7 token-matches the alias declaration itself, but a use site of
   the alias never says [Fixed] — only the typed taint follows it. *)
let test_t2_catches_alias_escape () =
  let path = "lib/repack/fixture.ml" in
  let source =
    fixed_stub ^ "module Alias = struct type t = Fixed.t end\n"
    ^ "let through (x : Alias.t) = x\n"
  in
  let line3_rules rules_of =
    rules_of
    |> List.filter (fun f -> f.Finding.line = 3)
    |> List.map (fun f -> f.Finding.rule)
    |> List.sort_uniq String.compare
  in
  (* the syntactic tier flags line 2 (it sees the [Fixed] token in the
     alias declaration) but is blind to the use on line 3 *)
  let syntactic = (Lint.run_sources [ (path, source) ]).Lint.findings in
  Alcotest.(check (list string))
    "R7 blind at the alias use site" []
    (line3_rules syntactic);
  (* the typed tier follows the taint through the alias to line 3 *)
  let typed = typed_findings path source in
  Alcotest.(check (list string))
    "T2 flags the alias use site" [ "T2" ]
    (line3_rules typed)

(* ---- T3: mutable capture by spawned closures ------------------------- *)

let test_t3 () =
  check_fires "T3" "lib/core/fixture.ml"
    "let bad () =\n\
    \  let counter = ref 0 in\n\
    \  Domain.spawn (fun () -> incr counter)\n";
  check_fires "T3" "lib/opt/fixture.ml"
    "let bad (tbl : (int, int) Hashtbl.t) =\n\
    \  Domain.spawn (fun () -> Hashtbl.length tbl)\n";
  (* a mutable record field taints the whole type *)
  check_fires "T3" "lib/core/fixture.ml"
    "type cell = { mutable v : int }\n\
     let bad (c : cell) = Domain.spawn (fun () -> c.v)\n";
  (* immutable captures are fine *)
  check_silent "T3" "lib/core/fixture.ml"
    "let ok (n : int) = Domain.spawn (fun () -> n + 1)\n";
  (* idents bound inside the spawned closure are not captures *)
  check_silent "T3" "lib/core/fixture.ml"
    "let ok () = Domain.spawn (fun () -> let r = ref 0 in incr r; !r)\n";
  (* the approved parallel runner is exempt *)
  check_silent "T3" "lib/experiments/registry.ml"
    "let ok () =\n\
    \  let counter = ref 0 in\n\
    \  Domain.spawn (fun () -> incr counter)\n"

(* ---- T4: allocation census of the commit/view core ------------------- *)

let spammy_body =
  "  let a = (x, x) in\n\
  \  let b = (x, x + 1) in\n\
  \  let c = (x, x + 2) in\n\
  \  let d = (x, x + 3) in\n\
  \  [ a; b; c; d ]\n"

let test_t4 () =
  (* four tuples beat the boxed threshold in a hot function *)
  check_fires "T4" "lib/core/simulator.ml"
    ("let commit x =\n" ^ spammy_body);
  (* same body, cold name: not on the per-event path *)
  check_silent "T4" "lib/core/simulator.ml"
    ("let report_summary x =\n" ^ spammy_body);
  (* same body, hot name, outside the engine: T4 is simulator-scoped *)
  check_silent "T4" "lib/opt/fixture.ml"
    ("let commit x =\n" ^ spammy_body);
  (* a lean hot function passes *)
  check_silent "T4" "lib/core/simulator.ml"
    "let refresh_slot x = x + 1\n";
  (* rational temporaries count against their own threshold *)
  check_fires "T4" "lib/core/simulator.ml"
    (rat_stub
   ^ "let commit (a : Rat.t) b =\n\
     \  let x1 = Rat.add a b in\n\
     \  let x2 = Rat.add x1 b in\n\
     \  let x3 = Rat.add x2 b in\n\
     \  let x4 = Rat.add x3 b in\n\
     \  let x5 = Rat.add x4 b in\n\
     \  x5\n");
  check_silent "T4" "lib/core/simulator.ml"
    (rat_stub
   ^ "let commit (a : Rat.t) b =\n\
     \  let x1 = Rat.add a b in\n\
     \  let x2 = Rat.add x1 b in\n\
     \  x2\n");
  (* allocations on a panic branch do not count against the budget... *)
  check_silent "T4" "lib/core/simulator.ml"
    "let mark_dirty x =\n\
    \  if x < 0 then\n\
    \    invalid_arg (String.concat \",\" [ \"a\"; \"b\"; \"c\"; \"d\"; \
     \"e\" ])\n\
    \  else x\n";
  (* ... but the same list on a live path does *)
  check_fires "T4" "lib/core/simulator.ml"
    "let mark_dirty x =\n\
    \  ignore (String.concat \",\" [ \"a\"; \"b\"; \"c\"; \"d\"; \"e\" ]);\n\
    \  x\n"

(* ---- plumbing: shared findings, fingerprints, typecheck errors ------- *)

let test_plumbing () =
  (* a fixture that does not typecheck becomes a finding, not a crash *)
  (match typed_findings "lib/opt/broken.ml" "let f (x : int) = x +. 1.0\n" with
  | [ f ] ->
      Alcotest.(check string) "typecheck rule" "typecheck" f.Finding.rule;
      Alcotest.(check string) "path kept" "lib/opt/broken.ml" f.Finding.path
  | fs -> Alcotest.failf "expected one typecheck finding, got %d" (List.length fs));
  (* dune's wrapped-library mangling strips to the bare module name *)
  Alcotest.(check string) "norm_unit" "Rat" (Typed_rules.norm_unit "Dbp_num__Rat");
  Alcotest.(check string)
    "norm_unit idempotent" "Simulator"
    (Typed_rules.norm_unit "Simulator");
  (* typed findings ride the same baseline plumbing as the syntactic
     tier: position-independent fingerprints, suppression, staleness *)
  let path = "lib/opt/fixture.ml" in
  let source = rat_stub ^ "let f (a : Rat.t) b = a = b\n" in
  (match (Typed_lint.run_typed_sources [ (path, source) ]).Lint.findings with
  | [ f ] ->
      Alcotest.(check string) "typed rule" "T1" f.Finding.rule;
      let fp =
        match Lint.fingerprints [ f ] with
        | [ (_, fp) ] -> fp
        | _ -> Alcotest.fail "one indexed fingerprint"
      in
      let suppressed =
        Typed_lint.run_typed_sources ~baseline:[ fp ] [ (path, source) ]
      in
      Alcotest.(check int)
        "typed finding baselined" 0
        (List.length suppressed.Lint.findings);
      Alcotest.(check int) "baselined count" 1 suppressed.Lint.baselined
  | fs -> Alcotest.failf "expected one T1 finding, got %d" (List.length fs));
  (* every typed rule is registered for `dbp check --rules` *)
  Alcotest.(check (list string))
    "typed rule ids"
    [ "T1"; "T2"; "T3"; "T4" ]
    (List.map (fun r -> r.Rules.id) Typed_rules.all_typed_rules)

let suite =
  [
    Alcotest.test_case "T1 typed Rat compare" `Quick test_t1;
    Alcotest.test_case "T1 vector-buried Rat" `Quick test_t1_vec;
    Alcotest.test_case "T1 catches what R3 misses" `Quick
      test_t1_catches_what_r3_misses;
    Alcotest.test_case "T2 Fixed escape" `Quick test_t2;
    Alcotest.test_case "T2 catches alias escape R7 misses" `Quick
      test_t2_catches_alias_escape;
    Alcotest.test_case "T3 mutable capture in spawn" `Quick test_t3;
    Alcotest.test_case "T4 hot-path allocation census" `Quick test_t4;
    Alcotest.test_case "typed tier plumbing" `Quick test_plumbing;
  ]
