(* Runtime invariant auditor for the O(open-bins) engine: the
   sanitizer-style half of the correctness tooling (the static half is
   [Dbp_lint]).  When a simulator runs with audit enabled, the engine
   re-verifies its memoised state against a recompute-from-scratch
   after every event and raises [Audit_violation] on the first
   divergence.  See DESIGN.md "Correctness tooling" for the invariant
   -> theorem mapping. *)

open Dbp_num

type violation = {
  check : string;
  time : Rat.t option;
  bin_id : int option;
  detail : string;
}

exception Audit_violation of violation

let violation_to_string v =
  Printf.sprintf "audit violation [%s]%s%s: %s" v.check
    (match v.time with
    | Some t -> Printf.sprintf " at t=%s" (Rat.to_string t)
    | None -> "")
    (match v.bin_id with
    | Some id -> Printf.sprintf " bin %d" id
    | None -> "")
    v.detail

let () =
  Printexc.register_printer (function
    | Audit_violation v -> Some (violation_to_string v)
    | _ -> None)

let fail ?time ?bin_id ~check fmt =
  Format.kasprintf
    (fun detail -> raise (Audit_violation { check; time; bin_id; detail }))
    fmt

let enabled_from_env () =
  match Sys.getenv_opt "DBP_AUDIT" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* ---- packing-level conservation ------------------------------------- *)

(* Cost conservation: the accumulated total must equal both the sum of
   the bins' open intervals and the integral of the open-bin timeline
   (cost at rate C is total * C, so conserving the total conserves
   every reported cost). *)
let check_packing (p : Packing.t) =
  let fail fmt = fail ~check:"cost-conservation" fmt in
  let by_periods =
    Array.fold_left
      (fun acc (b : Packing.bin_record) ->
        if Rat.(b.Packing.closed < b.Packing.opened) then
          fail "bin %d closes at %s before opening at %s" b.Packing.bin_id
            (Rat.to_string b.Packing.closed)
            (Rat.to_string b.Packing.opened);
        Rat.add acc (Rat.sub b.Packing.closed b.Packing.opened))
      Rat.zero p.Packing.bins
  in
  if not (Rat.equal by_periods p.Packing.total_cost) then
    fail "total cost %s <> sum of bin open intervals %s"
      (Rat.to_string p.Packing.total_cost)
      (Rat.to_string by_periods);
  let by_integral = Step_fn.integral p.Packing.timeline in
  if not (Rat.equal by_integral p.Packing.total_cost) then
    fail "total cost %s <> timeline integral %s"
      (Rat.to_string p.Packing.total_cost)
      (Rat.to_string by_integral);
  (* Full structural re-validation (capacity replay, assignment
     totality, interval containment) in audit terms. *)
  match Packing.validate p with
  | Ok () -> ()
  | Error msg ->
      raise
        (Audit_violation
           { check = "packing"; time = None; bin_id = None; detail = msg })
