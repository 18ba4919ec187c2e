(** Runtime invariant auditor for the O(open-bins) engine.

    Enabling audit mode ({!Simulator.Online.create}'s [?audit], the
    [DBP_AUDIT] environment variable, or `dbp check --audit`) makes the
    engine re-verify its store against a recompute-from-scratch after
    every event: capacity never exceeded, the open-slot array in
    opening order, memoised levels and views = recomputed ones, every
    active item tracked in exactly one open bin (which also makes
    migration conserve volume), and — at {!Simulator.Online.finish} —
    cost conservation (total cost = sum of bin open intervals =
    timeline integral).  The first divergence raises
    {!Audit_violation} with a structured payload.

    The auditor exists because the paper's Theorems 1–5 only hold
    under exact accounting: a silently corrupted level or cost would
    invalidate every reported ratio while still "looking plausible".
    Audit mode costs O(total state) per event and is for tests/CI, not
    production runs. *)

open Dbp_num

type violation = {
  check : string;
      (** Which invariant family.  The engine store audit reports
          ["open-index"] (the open-slot array: opening order,
          back-pointers, open/closed agreement), ["bin"] (memoised
          per-bin level, count, maximum and view vs a recompute),
          ["store"] (scaled columns vs their exact counterparts) and
          ["item-bin"] (item tracking: counters, back-pointers, no
          active item in a closed bin); {!check_packing} reports
          ["cost-conservation"] and ["packing"]. *)
  time : Rat.t option;  (** Simulation clock when detected. *)
  bin_id : int option;
  detail : string;
}

exception Audit_violation of violation

val violation_to_string : violation -> string

val fail :
  ?time:Rat.t ->
  ?bin_id:int ->
  check:string ->
  ('a, Format.formatter, unit, 'b) format4 ->
  'a
(** Raises {!Audit_violation} with a formatted detail message. *)

val enabled_from_env : unit -> bool
(** True iff [DBP_AUDIT] is set to [1]/[true]/[yes]/[on].
    {!Simulator.run} uses it as the default audit setting, so
    [DBP_AUDIT=1 dune runtest] audits the whole test suite. *)

val check_packing : Packing.t -> unit
(** Cost conservation plus full structural re-validation of a finished
    packing.  @raise Audit_violation on the first divergence. *)
