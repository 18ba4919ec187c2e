(* mintotal-dbp: command-line front end.

   Subcommands: generate / simulate / opt / adversary / decompose /
   offline / diff / stats / experiments / faults / gaming / dvbp /
   bench / trace / checkpoint / repack / metrics / check / serve.
   See README.md for a tour. *)

open Cmdliner
open Dbp_num
open Dbp_core

(* ---- shared argument converters ---------------------------------- *)

let rat_conv =
  let parse s =
    match Rat.of_string s with
    | r -> Ok r
    | exception Failure msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Rat.pp)

let policy_arg =
  let doc =
    "Packing policy: first-fit, best-fit, worst-fit, last-fit, next-fit, \
     random-fit, mff, mff:<k> (e.g. mff:9/2)."
  in
  Arg.(value & opt string "first-fit" & info [ "p"; "policy" ] ~doc)

let seed_arg =
  Arg.(value & opt int64 42L & info [ "seed" ] ~doc:"PRNG seed.")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Log every placement decision.")

let setup_verbose verbose =
  if verbose then begin
    Logs.set_reporter (Logs.format_reporter ());
    Logs.Src.set_level Simulator.log_src (Some Logs.Debug)
  end

let trace_arg ~doc = Arg.(required & opt (some file) None & info [ "trace" ] ~doc)

let load_trace path =
  match Dbp_workload.Trace.load ~path with
  | instance -> instance
  | exception Dbp_workload.Trace.Parse_error e ->
      Format.eprintf "%s: %s@." path (Dbp_workload.Trace.parse_error_to_string e);
      exit 2
  | exception Sys_error msg ->
      Format.eprintf "%s@." msg;
      exit 2

let resolve_policy ?mu name =
  match Algorithms.find ?mu name with
  | Some p -> p
  | None ->
      Format.eprintf "unknown policy %s (known: %s)@." name
        (String.concat ", " Algorithms.names);
      exit 2

(* Perf-floor files (bench-floor.txt, serve-floor.txt): first
   non-comment line is the floor, in events per second. *)
let read_floor path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go lineno =
        match input_line ic with
        | line -> (
            let line = String.trim line in
            if line = "" || line.[0] = '#' then go (lineno + 1)
            else
              (* [float_of_string] alone fails with the unhelpful
                 "float_of_string"; name the offending line. *)
              match float_of_string_opt line with
              | Some f -> f
              | None ->
                  failwith
                    (Printf.sprintf "%s: line %d is not a number: %S" path
                       lineno line))
        | exception End_of_file ->
            failwith (path ^ ": no floor value found")
      in
      go 1)

(* ---- generate ------------------------------------------------------ *)

let generate_cmd =
  let count =
    Arg.(value & opt int 200 & info [ "n"; "count" ] ~doc:"Number of items.")
  in
  let mu =
    Arg.(value & opt float 10.0 & info [ "mu" ] ~doc:"Target max/min interval ratio.")
  in
  let small =
    Arg.(value & opt (some int) None
         & info [ "small" ] ~doc:"Restrict sizes to < W/$(docv)." ~docv:"K")
  in
  let large =
    Arg.(value & opt (some int) None
         & info [ "large" ] ~doc:"Restrict sizes to >= W/$(docv)." ~docv:"K")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc:"Output CSV path (default stdout).")
  in
  let run count mu small large out seed =
    let open Dbp_workload in
    let spec =
      Spec.with_target_mu { Spec.default with Spec.count } ~mu
    in
    let spec =
      match (small, large) with
      | Some k, _ -> Spec.small_items spec ~k
      | None, Some k -> Spec.large_items spec ~k
      | None, None -> spec
    in
    let instance = Generator.generate ~seed spec in
    let csv = Trace.to_string instance in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc csv;
        close_out oc;
        Format.printf "wrote %d items to %s@." (Instance.size instance) path
    | None -> print_string csv);
    0
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a random MinTotal DBP workload trace.")
    Term.(const run $ count $ mu $ small $ large $ out $ seed_arg)

(* ---- simulate ------------------------------------------------------ *)

let simulate_cmd =
  let trace = trace_arg ~doc:"Input trace CSV (see $(b,generate))." in
  let with_ratio =
    Arg.(value & flag & info [ "ratio" ] ~doc:"Also compute OPT_total and the competitive ratio.")
  in
  let rate =
    Arg.(value & opt rat_conv Rat.one & info [ "rate" ] ~doc:"Bin cost rate C.")
  in
  let run trace policy_name with_ratio rate seed verbose =
    setup_verbose verbose;
    let instance = load_trace trace in
    let policy = resolve_policy ~mu:(Instance.mu instance) policy_name in
    ignore seed;
    let packing = Simulator.run ~policy instance in
    (match Packing.validate packing with
    | Ok () -> ()
    | Error msg ->
        Format.eprintf "internal error: invalid packing: %s@." msg;
        exit 1);
    Format.printf "%a@." Packing.pp_summary packing;
    Format.printf "cost at rate %a: %a@." Rat.pp rate Rat.pp_float
      (Packing.cost packing ~rate);
    if with_ratio then begin
      let ratio = Dbp_analysis.Ratio.measure packing in
      Format.printf "%a@." Dbp_opt.Opt_total.pp ratio.Dbp_analysis.Ratio.opt;
      Format.printf "competitive ratio: %a@." Dbp_analysis.Ratio.pp ratio
    end;
    0
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Pack a trace with an online policy and report the cost.")
    Term.(const run $ trace $ policy_arg $ with_ratio $ rate $ seed_arg $ verbose_arg)

(* ---- opt ----------------------------------------------------------- *)

let opt_cmd =
  let trace = trace_arg ~doc:"Input trace CSV." in
  let budget =
    Arg.(value & opt int 200_000
         & info [ "node-budget" ] ~doc:"Branch-and-bound node budget per segment.")
  in
  let run trace budget =
    let instance = load_trace trace in
    let opt = Dbp_opt.Opt_total.compute ~node_budget:budget instance in
    Format.printf "%a@." Instance.pp instance;
    Format.printf "bound (b.1) u(R)/W        = %a@." Rat.pp_float
      (Dbp_opt.Bounds.demand_bound instance);
    Format.printf "bound (b.2) span(R)       = %a@." Rat.pp_float
      (Dbp_opt.Bounds.span_bound instance);
    Format.printf "segment lower bound       = %a@." Rat.pp_float
      (Dbp_opt.Bounds.segment_lower_bound instance);
    Format.printf "bound (b.3) sum len(I(r)) = %a@." Rat.pp_float
      (Dbp_opt.Bounds.naive_upper_bound instance);
    Format.printf "%a@." Dbp_opt.Opt_total.pp opt;
    0
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Compute OPT_total and the paper's bounds for a trace.")
    Term.(const run $ trace $ budget)

(* ---- adversary ----------------------------------------------------- *)

let adversary_cmd =
  let which =
    Arg.(required & pos 0 (some (enum [ ("anyfit", `Anyfit); ("bestfit", `Bestfit) ])) None
         & info [] ~docv:"CONSTRUCTION" ~doc:"anyfit (Theorem 1) or bestfit (Theorem 2).")
  in
  let k = Arg.(value & opt int 8 & info [ "k" ] ~doc:"Construction parameter k.") in
  let mu = Arg.(value & opt rat_conv (Rat.of_int 4) & info [ "mu" ] ~doc:"Interval length ratio mu.") in
  let iterations =
    Arg.(value & opt (some int) None & info [ "iterations" ] ~doc:"Theorem 2 iteration count (default: paper threshold + 1).")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~doc:"Save the realised instance as CSV.")
  in
  let run which k mu iterations policy_name out =
    let save instance =
      Option.iter
        (fun path ->
          Dbp_workload.Trace.save instance ~path;
          Format.printf "instance saved to %s@." path)
        out
    in
    (match which with
    | `Anyfit ->
        let policy = resolve_policy ~mu policy_name in
        let r = Dbp_adversary.Anyfit_lb.run ~policy ~k ~mu () in
        Format.printf "%a@." Packing.pp_summary r.Dbp_adversary.Anyfit_lb.packing;
        Format.printf "algorithm cost : %a@." Rat.pp_float
          r.Dbp_adversary.Anyfit_lb.algorithm_cost;
        Format.printf "OPT_total      : %a@." Rat.pp_float
          r.Dbp_adversary.Anyfit_lb.opt_upper;
        Format.printf "ratio          : %a  (eq (1) predicts %a; bound mu = %a)@."
          Rat.pp_float r.Dbp_adversary.Anyfit_lb.ratio_lower Rat.pp_float
          (Dbp_analysis.Theorem_bounds.anyfit_construction_ratio ~k ~mu)
          Rat.pp mu;
        save r.Dbp_adversary.Anyfit_lb.instance
    | `Bestfit ->
        let iterations =
          match iterations with
          | Some n -> n
          | None -> Dbp_adversary.Bestfit_unbounded.paper_iterations ~k ~mu + 1
        in
        let r = Dbp_adversary.Bestfit_unbounded.run ~k ~mu ~iterations () in
        Format.printf "%a@." Packing.pp_summary r.Dbp_adversary.Bestfit_unbounded.packing;
        Format.printf "items          : %d@." r.Dbp_adversary.Bestfit_unbounded.items_total;
        Format.printf "BF cost        : %a@." Rat.pp_float
          r.Dbp_adversary.Bestfit_unbounded.algorithm_cost;
        Format.printf "OPT upper      : %a@." Rat.pp_float
          r.Dbp_adversary.Bestfit_unbounded.opt_upper;
        Format.printf "ratio          : %a  (forced >= k/2 = %a)@." Rat.pp_float
          r.Dbp_adversary.Bestfit_unbounded.ratio_lower Rat.pp_float
          (Rat.make k 2);
        save r.Dbp_adversary.Bestfit_unbounded.instance);
    0
  in
  Cmd.v
    (Cmd.info "adversary" ~doc:"Run the Theorem 1 / Theorem 2 adaptive adversaries.")
    Term.(const run $ which $ k $ mu $ iterations $ policy_arg $ out)

(* ---- decompose ------------------------------------------------------ *)

let decompose_cmd =
  let trace = trace_arg ~doc:"Input trace CSV." in
  let small_k =
    Arg.(value & opt (some rat_conv) None
         & info [ "k" ] ~doc:"Also check the all-small-items inequalities for this k.")
  in
  let width =
    Arg.(value & opt int 64 & info [ "width" ] ~doc:"Timeline width in columns.")
  in
  let svg =
    Arg.(value & opt (some string) None
         & info [ "svg" ] ~doc:"Also write an SVG rendering of the packing here.")
  in
  let run trace small_k width svg =
    let instance = load_trace trace in
    let packing = Simulator.run ~policy:First_fit.policy instance in
    print_string (Dbp_analysis.Timeline_render.render ~width packing);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Dbp_analysis.Timeline_render.render_svg packing);
        close_out oc;
        Format.printf "svg written to %s@." path)
      svg;
    let report = Dbp_analysis.Ff_decomposition.analyse ?k:small_k packing in
    Format.printf "@.%a@." Dbp_analysis.Ff_decomposition.pp_report report;
    (match report.Dbp_analysis.Ff_decomposition.violations with
    | [] -> Format.printf "all Section 4.3 checks passed@."
    | vs ->
        List.iter (fun v -> Format.printf "VIOLATION: %s@." v) vs);
    if report.Dbp_analysis.Ff_decomposition.violations = [] then 0 else 1
  in
  Cmd.v
    (Cmd.info "decompose"
       ~doc:"Render a First Fit packing and run the Section 4.3 proof checker on it.")
    Term.(const run $ trace $ small_k $ width $ svg)

(* ---- offline --------------------------------------------------------- *)

let offline_cmd =
  let trace = trace_arg ~doc:"Input trace CSV." in
  let exact =
    Arg.(value & flag
         & info [ "exact" ] ~doc:"Also run the exact branch-and-bound (small instances).")
  in
  let run trace exact =
    let instance = load_trace trace in
    let ff = Simulator.run ~policy:First_fit.policy instance in
    Format.printf "online First Fit        : %a@." Rat.pp_float
      ff.Packing.total_cost;
    let open Dbp_offline in
    List.iter
      (fun (name, s) ->
        Format.printf "%-24s: %a (%d groups)@." name Rat.pp_float
          s.Offline_heuristic.cost
          (List.length s.Offline_heuristic.groups))
      [
        ("offline FF by arrival", Offline_heuristic.first_fit_by_arrival instance);
        ("least span increase", Offline_heuristic.least_span_increase instance);
        ("longest first", Offline_heuristic.longest_first instance);
      ];
    if exact then begin
      let r = Offline_exact.solve instance in
      if r.Offline_exact.exact then
        Format.printf "exact offline optimum   : %a (%d nodes)@." Rat.pp_float
          r.Offline_exact.upper r.Offline_exact.nodes
      else
        Format.printf "exact offline optimum   : in [%a, %a] (budget hit)@."
          Rat.pp_float r.Offline_exact.lower Rat.pp_float r.Offline_exact.upper
    end;
    0
  in
  Cmd.v
    (Cmd.info "offline"
       ~doc:"Compare offline non-migratory packings against online First Fit.")
    Term.(const run $ trace $ exact)

(* ---- stats ------------------------------------------------------------ *)

let stats_cmd =
  let trace = trace_arg ~doc:"Input trace CSV." in
  let run trace =
    let instance = load_trace trace in
    Format.printf "%a@.@." Instance.pp instance;
    let items = Array.to_list (Instance.items instance) in
    let sizes = List.map (fun (r : Item.t) -> Rat.to_float r.size) items in
    let lengths = List.map (fun r -> Rat.to_float (Item.length r)) items in
    Format.printf "sizes    : %a@." Dbp_analysis.Stats.pp_summary
      (Dbp_analysis.Stats.summarise sizes);
    Format.printf "durations: %a@.@." Dbp_analysis.Stats.pp_summary
      (Dbp_analysis.Stats.summarise lengths);
    print_string (Dbp_analysis.Chart.histogram ~title:"item sizes" sizes);
    print_string (Dbp_analysis.Chart.histogram ~title:"interval lengths" lengths);
    let actives = Instance.active_count instance in
    Format.printf "peak concurrent items: %d@."
      (Dbp_num.Step_fn.max_value actives);
    0
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Summarise a trace: size/duration distributions, peaks.")
    Term.(const run $ trace)

(* ---- diff ------------------------------------------------------------ *)

let diff_cmd =
  let trace = trace_arg ~doc:"Input trace CSV." in
  let policy_a =
    Arg.(value & opt string "first-fit" & info [ "a" ] ~doc:"First policy.")
  in
  let policy_b =
    Arg.(value & opt string "best-fit" & info [ "b" ] ~doc:"Second policy.")
  in
  let run trace name_a name_b =
    let instance = load_trace trace in
    let mu = Instance.mu instance in
    let a = Simulator.run ~policy:(resolve_policy ~mu name_a) instance in
    let b = Simulator.run ~policy:(resolve_policy ~mu name_b) instance in
    Format.printf "A = %a@.B = %a@." Packing.pp_summary a Packing.pp_summary b;
    Format.printf "%a@." Dbp_analysis.Packing_diff.pp
      (Dbp_analysis.Packing_diff.compare a b);
    0
  in
  Cmd.v
    (Cmd.info "diff" ~doc:"Compare two policies' packings of the same trace.")
    Term.(const run $ trace $ policy_a $ policy_b)

(* ---- experiments ---------------------------------------------------- *)

let experiments_cmd =
  let names =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT" ~doc:"E1..E19 (default: all).")
  in
  let markdown =
    Arg.(value & flag & info [ "markdown" ] ~doc:"Render tables as markdown.")
  in
  let out_dir =
    Arg.(value & opt (some string) None
         & info [ "out-dir" ] ~doc:"Also write every table as CSV (and charts as text) into this directory.")
  in
  let jobs =
    Arg.(value & opt int 1
         & info [ "j"; "jobs" ]
             ~doc:"Domains to spread E1..E19 over (0 = one per core, \
                   capped).  Output is identical whatever the value.")
  in
  let run names markdown out_dir jobs =
    let domains =
      if jobs = 0 then Dbp_experiments.Registry.default_domains ()
      else max 1 jobs
    in
    let outcomes =
      match names with
      | [] -> Dbp_experiments.Registry.run_all ~domains ()
      | names ->
          List.map
            (fun n ->
              match Dbp_experiments.Registry.run n with
              | Some o -> o
              | None ->
                  Format.eprintf "unknown experiment %s (known: %s)@." n
                    (String.concat ", " Dbp_experiments.Registry.all_names);
                  exit 2)
            names
    in
    List.iter
      (fun o ->
        if markdown then begin
          Format.printf "## %s — %s@.@." o.Dbp_experiments.Exp_common.experiment
            o.Dbp_experiments.Exp_common.artefact;
          List.iter
            (fun t -> print_string (Dbp_analysis.Table.render_markdown t))
            o.Dbp_experiments.Exp_common.tables
        end
        else print_string (Dbp_experiments.Exp_common.render_outcome o))
      outcomes;
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        let slug s =
          String.map
            (fun c ->
              if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') then c
              else if c >= 'A' && c <= 'Z' then Char.lowercase_ascii c
              else '-')
            s
          |> fun s -> String.sub s 0 (min 48 (String.length s))
        in
        let write path contents =
          let oc = open_out path in
          output_string oc contents;
          close_out oc
        in
        List.iter
          (fun o ->
            List.iteri
              (fun i t ->
                let name =
                  Printf.sprintf "%s/%s-%d-%s.csv" dir
                    (String.lowercase_ascii o.Dbp_experiments.Exp_common.experiment)
                    i
                    (slug (Dbp_analysis.Table.title t))
                in
                write name (Dbp_analysis.Table.render_csv t))
              o.Dbp_experiments.Exp_common.tables;
            List.iteri
              (fun i chart ->
                write
                  (Printf.sprintf "%s/%s-chart-%d.txt" dir
                     (String.lowercase_ascii o.Dbp_experiments.Exp_common.experiment)
                     i)
                  chart)
              o.Dbp_experiments.Exp_common.charts)
          outcomes;
        Format.printf "wrote CSV/chart artefacts to %s/@." dir)
      out_dir;
    let failed =
      List.fold_left
        (fun acc o -> acc + o.Dbp_experiments.Exp_common.checks_failed)
        0 outcomes
    in
    if failed > 0 then begin
      Format.eprintf "%d experiment checks FAILED@." failed;
      1
    end
    else 0
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures (E1..E19).")
    Term.(const run $ names $ markdown $ out_dir $ jobs)

(* ---- faults --------------------------------------------------------- *)

let faults_cmd =
  let trace = trace_arg ~doc:"Input trace CSV (see $(b,generate))." in
  let crash_rate =
    Arg.(value & opt float 0.0
         & info [ "crash-rate" ]
             ~doc:"Poisson server-crash rate (crashes per unit time) over \
                   the trace horizon.")
  in
  let preempt_rate =
    Arg.(value & opt float 0.0
         & info [ "preempt-rate" ]
             ~doc:"Poisson spot-preemption rate; preempted sessions restart \
                   immediately thanks to the warning.")
  in
  let warning =
    Arg.(value & opt rat_conv (Rat.make 1 4)
         & info [ "warning" ] ~doc:"Spot preemption warning time.")
  in
  let targeted =
    Arg.(value & opt (list rat_conv) []
         & info [ "kill-fullest-at" ]
             ~doc:"Comma-separated times at which to kill the fullest open \
                   server (adversarial blast-radius faults).")
  in
  let launch_failure =
    Arg.(value & opt float 0.0
         & info [ "launch-failure-prob" ]
             ~doc:"Probability that a dispatch attempt fails to launch and \
                   must back off.")
  in
  let retries =
    Arg.(value & opt int 5
         & info [ "retries" ] ~doc:"Max backoff retries per dispatch chain.")
  in
  let restart_delay =
    Arg.(value & opt rat_conv (Rat.make 1 4)
         & info [ "restart-delay" ]
             ~doc:"Delay before a crash-evicted session re-dispatches.")
  in
  let max_fleet =
    Arg.(value & opt (some int) None
         & info [ "max-fleet" ]
             ~doc:"Admission gate: defer arrivals that would open a server \
                   beyond this fleet size.")
  in
  let max_pending =
    Arg.(value & opt (some int) None
         & info [ "max-pending" ]
             ~doc:"Bound on queued retries; beyond it the lowest-priority \
                   pending request is shed.")
  in
  let repack_budget =
    Arg.(value & opt (some string) None
         & info [ "repack-budget" ] ~docv:"SPEC"
             ~doc:
               "Arm the live-migration rung: on a crash, migrate the \
                victim server's sessions into the surviving fleet while \
                this recourse budget lasts (see $(b,dbp repack) for the \
                spec grammar); the rest fall down the \
                restart/backoff/shed ladder.")
  in
  let repack_policy =
    Arg.(value & opt string "consolidate"
         & info [ "repack-policy" ]
             ~doc:"Repack policy for the migration rung (with \
                   --repack-budget): consolidate, ffd.")
  in
  let run trace policy_name crash_rate preempt_rate warning targeted
      launch_failure retries restart_delay max_fleet max_pending
      repack_budget repack_policy seed verbose =
    setup_verbose verbose;
    let open Dbp_faults in
    let invalid msg =
      Format.eprintf "dbp faults: %s@." msg;
      exit 2
    in
    let repack =
      Option.map
        (fun s ->
          match
            ( Dbp_repack.Budget.spec_of_string s,
              Dbp_repack.Repack_policy.of_string repack_policy )
          with
          | Ok spec, Ok rp -> (spec, rp)
          | Error msg, _ | _, Error msg -> invalid msg)
        repack_budget
    in
    let instance = load_trace trace in
    let policy = resolve_policy ~mu:(Instance.mu instance) policy_name in
    let horizon = Dbp_num.Interval.hi (Instance.packing_period instance) in
    let plan =
      match
        List.fold_left Fault_plan.merge Fault_plan.empty
          (List.filter
             (fun p -> not (Fault_plan.is_empty p))
             [
               Fault_plan.poisson_crashes ~seed ~rate:crash_rate ~horizon;
               Fault_plan.spot_preemptions ~seed:(Int64.add seed 1L)
                 ~rate:preempt_rate ~warning ~horizon;
               Fault_plan.targeted_fullest ~times:targeted;
             ])
      with
      | plan -> plan
      | exception Invalid_argument msg -> invalid msg
    in
    let config =
      { Injector.default_config with
        Injector.seed;
        launch_failure_prob = launch_failure;
        max_retries = retries;
        restart_delay;
        max_fleet;
        max_pending }
    in
    Format.printf "plan %s: %d faults over horizon [0, %a]@."
      plan.Fault_plan.label (Fault_plan.count plan) Rat.pp_float horizon;
    let r =
      match Injector.run ?repack ~config ~plan ~policy instance with
      | r -> r
      | exception Invalid_argument msg -> invalid msg
    in
    (match Packing.validate r.Injector.packing with
    | Ok () -> ()
    | Error msg ->
        Format.eprintf "internal error: invalid faulty packing: %s@." msg;
        exit 1);
    Format.printf "%a@." Packing.pp_summary r.Injector.packing;
    Format.printf "%a@." Resilience.pp r.Injector.resilience;
    0
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Replay a trace under server crashes, spot preemptions and launch \
          failures, and report the degradation metrics.")
    Term.(
      const run $ trace $ policy_arg $ crash_rate $ preempt_rate $ warning
      $ targeted $ launch_failure $ retries $ restart_delay $ max_fleet
      $ max_pending $ repack_budget $ repack_policy $ seed_arg $ verbose_arg)

(* ---- gaming --------------------------------------------------------- *)

let gaming_cmd =
  let hours = Arg.(value & opt float 24.0 & info [ "hours" ] ~doc:"Trace horizon in hours.") in
  let rate = Arg.(value & opt float 60.0 & info [ "rate" ] ~doc:"Mean arrivals per hour.") in
  let run hours rate seed =
    let open Dbp_cloudgaming in
    let profile =
      { Gaming_workload.default_profile with
        Gaming_workload.duration_hours = hours;
        base_rate = rate }
    in
    let requests = Gaming_workload.generate ~seed profile in
    Format.printf "generated %d requests over %.1f h (mu = %a)@."
      (List.length requests) hours Rat.pp_float (Gaming_workload.mu_of requests);
    let mu = Gaming_workload.mu_of requests in
    let policies =
      [
        First_fit.policy;
        Best_fit.policy;
        Worst_fit.policy;
        Next_fit.policy;
        Modified_first_fit.policy_mu_oblivious;
        Modified_first_fit.policy_known_mu ~mu;
      ]
    in
    List.iter
      (fun report -> Format.printf "%a@." Dispatcher.pp_report report)
      (Dispatcher.compare_policies ~policies requests);
    0
  in
  Cmd.v
    (Cmd.info "gaming" ~doc:"Run the cloud gaming dispatch comparison.")
    Term.(const run $ hours $ rate $ seed_arg)

(* ---- dvbp ----------------------------------------------------------- *)

let dvbp_cmd =
  let hours =
    Arg.(value & opt float 8.0 & info [ "hours" ] ~doc:"Trace horizon in hours.")
  in
  let rate =
    Arg.(value & opt float 25.0 & info [ "rate" ] ~doc:"Mean arrivals per hour.")
  in
  let dims =
    Arg.(value
         & opt int Dbp_cloudgaming.Game.resource_dims
         & info [ "d"; "dims" ] ~docv:"D"
             ~doc:
               "Resource dimensions per game server, 1-4: GPU, then CPU, \
                RAM, network bandwidth.  $(b,--dims 1) is the paper's \
                scalar model.")
  in
  let policy =
    Arg.(value
         & opt (some string) None
         & info [ "p"; "policy" ]
             ~doc:
               "Vector policy: first-fit, best-fit[:max|:sum], \
                worst-fit[:max|:sum], next-fit; at $(b,--dims 1) every \
                scalar registry policy works too.  Omitted: compare the \
                whole native family.")
  in
  let run hours rate dims policy seed =
    let open Dbp_cloudgaming in
    if dims < 1 || dims > Game.resource_dims then begin
      Format.eprintf "dvbp: --dims must be in 1..%d@." Game.resource_dims;
      exit 2
    end;
    let profile =
      { Gaming_workload.default_profile with
        Gaming_workload.duration_hours = hours;
        base_rate = rate }
    in
    let policies =
      match policy with
      | None -> Vec_policy.all
      | Some name -> (
          match Vec_policy.find ~seed name with
          | Some p -> [ p ]
          | None ->
              Format.eprintf "unknown vector policy %s (known: %s)@." name
                (String.concat ", " Vec_policy.names);
              exit 2)
    in
    let requests = Gaming_workload.generate ~seed profile in
    let vinstance = Gaming_workload.to_vec_instance ~dims requests in
    let lb = Dbp_opt.Bounds.vec_segment_lower_bound vinstance in
    Format.printf "dvbp: %d requests, d=%d (%s), lower bound %a@."
      (List.length requests) dims
      (String.concat "+"
         (List.filteri (fun i _ -> i < dims) Game.resource_names))
      Rat.pp_float lb;
    let code = ref 0 in
    List.iter
      (fun policy ->
        let result = Vec_simulator.run ~policy vinstance in
        (match Vec_simulator.validate result with
        | Ok () -> ()
        | Error msg ->
            Format.eprintf "dvbp: %s fails validation: %s@."
              result.Vec_simulator.r_policy_name msg;
            code := 1);
        Format.printf
          "%s: cost=%s (%a), max open=%d, any-fit violations=%d, vs LB %a@."
          result.Vec_simulator.r_policy_name
          (Rat.to_string result.Vec_simulator.r_total_cost)
          Rat.pp_float result.Vec_simulator.r_total_cost
          result.Vec_simulator.r_max_bins
          result.Vec_simulator.r_any_fit_violations Rat.pp_float
          (Rat.div result.Vec_simulator.r_total_cost lb))
      policies;
    !code
  in
  Cmd.v
    (Cmd.info "dvbp"
       ~doc:
         "Dynamic Vector Bin Packing: pack the cloud-gaming workload's \
          multi-resource server profiles.")
    Term.(const run $ hours $ rate $ dims $ policy $ seed_arg)

(* ---- bench ---------------------------------------------------------- *)

let bench_cmd =
  let quick =
    Arg.(value & flag
         & info [ "quick" ]
             ~doc:"CI smoke profile: 500/2000-item traces instead of \
                   5000/50000.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the BENCH_simulator.json document instead of tables.")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ]
             ~doc:"Write the output here instead of stdout.")
  in
  let assert_floor =
    Arg.(value & opt (some file) None
         & info [ "assert-floor" ] ~docv:"FILE"
             ~doc:
               "Perf-regression gate: fail unless every fast-engine \
                policy at the largest trace size clears the \
                events-per-second floor read from $(docv) (first \
                non-comment line, see bench-floor.txt).")
  in
  let run quick json out assert_floor seed =
    let report = Dbp_experiments.Scaling_bench.run ~quick ~seed () in
    let body =
      if json then Dbp_experiments.Scaling_bench.to_json report
      else Dbp_experiments.Scaling_bench.render report
    in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Format.printf "wrote %s@." path
    | None -> print_string body);
    if not (Dbp_experiments.Scaling_bench.all_identical report) then begin
      Format.eprintf
        "engine equivalence violated: fast and seed packings differ@.";
      1
    end
    else
      match assert_floor with
      | None -> 0
      | Some path ->
          let floor = read_floor path in
          let slowest =
            Dbp_experiments.Scaling_bench.min_fast_throughput report
          in
          if slowest >= floor then begin
            Format.printf
              "perf floor ok: slowest fast-engine policy at %.0f events/s \
               (floor %.0f)@."
              slowest floor;
            0
          end
          else begin
            Format.eprintf
              "perf regression: slowest fast-engine policy at %.0f \
               events/s is below the %.0f floor in %s@."
              slowest floor path;
            1
          end
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Run the simulator scaling benchmark (fast vs seed engine, per \
          policy) and emit the perf-trajectory artefact.")
    Term.(const run $ quick $ json $ out $ assert_floor $ seed_arg)

(* ---- trace ---------------------------------------------------------- *)

let trace_cmd =
  let trace = trace_arg ~doc:"Input trace CSV (see $(b,generate))." in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ]
             ~doc:"Write the NDJSON event stream here (default stdout).")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:
               "Parse every emitted line back against the dbp-trace schema \
                and assert the traced run's packing is bit-identical to an \
                untraced one.")
  in
  let run trace policy_name out validate verbose =
    setup_verbose verbose;
    let instance = load_trace trace in
    let policy = resolve_policy ~mu:(Instance.mu instance) policy_name in
    let buf = Buffer.create 65536 in
    let sink = Dbp_obs.Sink.to_buffer buf in
    let traced = Simulator.run ~sink ~policy instance in
    let body = Buffer.contents buf in
    let status = ref 0 in
    (match out with
    | Some path ->
        let oc = open_out path in
        output_string oc body;
        close_out oc;
        Format.printf "wrote %d events to %s@." (Dbp_obs.Sink.emitted sink) path
    | None -> if not validate then print_string body);
    if validate then begin
      (match Dbp_obs.Trace_event.parse_all body with
      | Ok events ->
          Format.printf "trace: %d events validate against %s@."
            (List.length events) Dbp_obs.Trace_event.schema
      | Error msg ->
          Format.eprintf "trace: schema violation: %s@." msg;
          status := 1);
      let untraced = Simulator.run ~policy instance in
      if
        Rat.equal traced.Packing.total_cost untraced.Packing.total_cost
        && traced.Packing.assignment = untraced.Packing.assignment
      then
        Format.printf "trace: traced run bit-identical to untraced (cost %s)@."
          (Rat.to_string traced.Packing.total_cost)
      else begin
        Format.eprintf "trace: traced and untraced packings DIFFER@.";
        status := 1
      end
    end;
    !status
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a trace with the structured event sink on and emit the \
          NDJSON event stream (arrive/pack/depart/bin_open/bin_close).")
    Term.(const run $ trace $ policy_arg $ out $ validate $ verbose_arg)

(* ---- checkpoint ------------------------------------------------------ *)

let checkpoint_cmd =
  let trace =
    Arg.(value & opt (some file) None
         & info [ "trace" ]
             ~doc:"Input trace CSV (required for --save/--resume/--verify).")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"SNAPSHOT"
             ~doc:"Freeze the run after --at events and write the snapshot here.")
  in
  let at =
    Arg.(value & opt (some int) None
         & info [ "at" ] ~docv:"N" ~doc:"Event index to checkpoint at (with --save).")
  in
  let resume_path =
    Arg.(value & opt (some file) None
         & info [ "resume" ] ~docv:"SNAPSHOT"
             ~doc:"Resume from this snapshot and finish the run.")
  in
  let inspect_path =
    Arg.(value & opt (some file) None
         & info [ "inspect" ] ~docv:"SNAPSHOT"
             ~doc:"Print a snapshot summary (no trace needed) and exit.")
  in
  let verify_path =
    Arg.(value & opt (some file) None
         & info [ "verify" ] ~docv:"SNAPSHOT"
             ~doc:
               "Prove the snapshot resumes bit-identically: packing, exact \
                cost and trace suffix all equal the uninterrupted run's.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ]
             ~doc:"Write the resumed run's NDJSON event stream here (with \
                   --resume); its sequence numbers continue the snapshot's.")
  in
  let run trace policy_name save at resume_path inspect_path verify_path
      trace_out seed =
    let usage msg =
      Format.eprintf "dbp checkpoint: %s@." msg;
      exit 2
    in
    let load_snapshot path =
      match Dbp_checkpoint.Checkpoint.load_file path with
      | Ok snap -> snap
      | Error msg ->
          Format.eprintf "%s: corrupt snapshot: %s@." path msg;
          exit 2
    in
    let need_trace () =
      match trace with
      | Some t -> load_trace t
      | None -> usage "--trace is required for this mode"
    in
    match (save, resume_path, inspect_path, verify_path) with
    | Some path, None, None, None ->
        let at =
          match at with Some n -> n | None -> usage "--save requires --at N"
        in
        let instance = need_trace () in
        let snap =
          Dbp_checkpoint.Checkpoint.save_at ~mu:(Instance.mu instance) ~seed
            ~policy_name ~at instance
        in
        Dbp_checkpoint.Checkpoint.save_file path snap;
        Format.printf "checkpoint: froze %s after %d event(s) to %s@."
          policy_name at path;
        0
    | None, Some spath, None, None ->
        let instance = need_trace () in
        let snap = load_snapshot spath in
        let buf = Buffer.create 65536 in
        let sink =
          Option.map (fun _ -> Dbp_obs.Sink.to_buffer buf) trace_out
        in
        let resumed =
          Dbp_checkpoint.Checkpoint.resume ?sink ~mu:(Instance.mu instance)
            instance snap
        in
        (match Packing.validate resumed.Dbp_checkpoint.Checkpoint.packing with
        | Ok () -> ()
        | Error msg ->
            Format.eprintf "internal error: invalid resumed packing: %s@." msg;
            exit 1);
        Option.iter
          (fun path ->
            let oc = open_out path in
            output_string oc (Buffer.contents buf);
            close_out oc;
            Format.printf "wrote resumed event stream to %s@." path)
          trace_out;
        Format.printf "%a@." Packing.pp_summary
          resumed.Dbp_checkpoint.Checkpoint.packing;
        0
    | None, None, Some path, None ->
        print_string (Dbp_checkpoint.Checkpoint.inspect (load_snapshot path));
        0
    | None, None, None, Some path ->
        let instance = need_trace () in
        let snap = load_snapshot path in
        let v =
          Dbp_checkpoint.Checkpoint.verify ~mu:(Instance.mu instance) instance
            snap
        in
        if v.Dbp_checkpoint.Checkpoint.ok then begin
          Format.printf
            "verify: resumed run bit-identical to the uninterrupted one@.";
          0
        end
        else begin
          List.iter
            (fun m -> Format.eprintf "verify: MISMATCH: %s@." m)
            v.Dbp_checkpoint.Checkpoint.mismatches;
          1
        end
    | None, None, None, None ->
        usage "pick one of --save / --resume / --inspect / --verify"
    | _ -> usage "--save / --resume / --inspect / --verify are mutually exclusive"
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Freeze a run mid-stream into a dbp-checkpoint/1 snapshot, resume \
          one, summarise one, or prove a resume bit-identical.")
    Term.(
      const run $ trace $ policy_arg $ save $ at $ resume_path $ inspect_path
      $ verify_path $ trace_out $ seed_arg)

(* ---- repack --------------------------------------------------------- *)

let repack_cmd =
  let trace = trace_arg ~doc:"Input trace CSV (see $(b,generate))." in
  let budget =
    Arg.(value & opt string "inf"
         & info [ "budget" ] ~docv:"SPEC"
             ~doc:
               "Recourse budget: $(b,8) (8 item-moves total), \
                $(b,items:total:8), $(b,volume:event:1/2), \
                $(b,items:bucket:1/4:8) (rate then burst), or \
                $(b,inf).  Invalid or negative specs exit 2.")
  in
  let repack =
    Arg.(value & opt string "consolidate"
         & info [ "repack" ] ~docv:"POLICY"
             ~doc:"Repack policy: none, consolidate, ffd.")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"SPECS"
             ~doc:
               "Comma-separated budget specs; replay the trace once per \
                spec and tabulate cost against migrations spent.")
  in
  let assert_monotone =
    Arg.(value & flag
         & info [ "assert-monotone" ]
             ~doc:
               "With --sweep: exit 1 unless the exact cost is \
                non-increasing across the sweep order.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:
               "Machine-readable output: one JSON object (or, with \
                --sweep, one per line) with exact rationals as strings.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:
               "Checkpoint-kill-resume proof: freeze the run at its \
                midpoint, round-trip the snapshot through the wire \
                format, resume, and exit 1 unless packing, exact cost \
                and trace suffix are bit-identical to the uninterrupted \
                run.")
  in
  let run trace policy_name budget_s repack_s sweep assert_monotone json
      verify verbose =
    setup_verbose verbose;
    let open Dbp_repack in
    let usage msg =
      Format.eprintf "dbp repack: %s@." msg;
      exit 2
    in
    let budget_of s =
      match Budget.spec_of_string s with
      | Ok spec -> spec
      | Error msg -> usage msg
    in
    let rp =
      match Repack_policy.of_string repack_s with
      | Ok rp -> rp
      | Error msg -> usage msg
    in
    let instance = load_trace trace in
    let policy = resolve_policy ~mu:(Instance.mu instance) policy_name in
    let run_one budget =
      let r = Runner.run ~budget ~repack:rp ~policy instance in
      (match Packing.validate r.Runner.packing with
      | Ok () -> ()
      | Error msg ->
          Format.eprintf "internal error: invalid repacked packing: %s@." msg;
          exit 1);
      r
    in
    let json_line spec (r : Runner.result) =
      Printf.printf
        "{\"schema\":\"dbp-repack/1\",\"policy\":%S,\"repack\":%S,\
         \"budget\":%S,\"cost\":%S,\"max_bins\":%d,\"migrations\":%d,\
         \"moved_volume\":%S,\"bins_drained\":%d,\"reclaimed\":%S,\
         \"denied\":%d}\n"
        policy_name
        (Repack_policy.name rp)
        (Budget.spec_to_string spec)
        (Rat.to_string r.Runner.packing.Packing.total_cost)
        r.Runner.packing.Packing.max_bins r.Runner.stats.Runner.migrations
        (Rat.to_string r.Runner.stats.Runner.migrated_volume)
        r.Runner.stats.Runner.bins_closed_by_repack
        (Rat.to_string r.Runner.stats.Runner.reclaimed_bin_seconds)
        r.Runner.stats.Runner.denied_triggers
    in
    let text_summary spec (r : Runner.result) =
      Format.printf "%a@." Packing.pp_summary r.Runner.packing;
      Format.printf
        "repack %s, budget %s: %d migration(s), %a volume moved, %d bin(s) \
         drained shut, %a bin-seconds reclaimed, %d denied trigger(s)@."
        (Repack_policy.name rp)
        (Budget.spec_to_string spec)
        r.Runner.stats.Runner.migrations Rat.pp_float
        r.Runner.stats.Runner.migrated_volume
        r.Runner.stats.Runner.bins_closed_by_repack Rat.pp_float
        r.Runner.stats.Runner.reclaimed_bin_seconds
        r.Runner.stats.Runner.denied_triggers
    in
    match (sweep, verify) with
    | Some _, true -> usage "--sweep and --verify are mutually exclusive"
    | Some specs, false ->
        let specs =
          String.split_on_char ',' specs
          |> List.filter (fun s -> String.trim s <> "")
          |> List.map (fun s -> budget_of (String.trim s))
        in
        if specs = [] then usage "--sweep needs at least one budget spec";
        let results = List.map (fun spec -> (spec, run_one spec)) specs in
        List.iter
          (fun (spec, r) ->
            if json then json_line spec r
            else
              Format.printf
                "budget %-16s cost %-12s migrations %-5d drained %d@."
                (Budget.spec_to_string spec)
                (Rat.to_string r.Runner.packing.Packing.total_cost)
                r.Runner.stats.Runner.migrations
                r.Runner.stats.Runner.bins_closed_by_repack)
          results;
        let costs =
          List.map
            (fun (_, r) -> r.Runner.packing.Packing.total_cost)
            results
        in
        let rec monotone = function
          | a :: (b :: _ as rest) -> Rat.(b <= a) && monotone rest
          | _ -> true
        in
        if assert_monotone && not (monotone costs) then begin
          Format.eprintf
            "repack: cost is NOT non-increasing across the sweep@.";
          1
        end
        else 0
    | None, true ->
        let spec = budget_of budget_s in
        let total = 2 * Instance.size instance in
        let at = total / 2 in
        let snap =
          Dbp_checkpoint.Checkpoint.save_repack_at
            ~mu:(Instance.mu instance) ~policy_name ~at ~budget:spec
            ~repack:rp instance
        in
        let snap =
          match
            Dbp_checkpoint.Snapshot.of_string
              (Dbp_checkpoint.Snapshot.to_string snap)
          with
          | Ok s -> s
          | Error msg ->
              Format.eprintf "repack: snapshot round trip failed: %s@." msg;
              exit 1
        in
        let v =
          Dbp_checkpoint.Checkpoint.verify ~mu:(Instance.mu instance)
            instance snap
        in
        if v.Dbp_checkpoint.Checkpoint.ok then begin
          Format.printf
            "verify: repack run killed at event %d/%d resumes \
             bit-identically@."
            at total;
          0
        end
        else begin
          List.iter
            (fun m -> Format.eprintf "verify: MISMATCH: %s@." m)
            v.Dbp_checkpoint.Checkpoint.mismatches;
          1
        end
    | None, false ->
        let spec = budget_of budget_s in
        let r = run_one spec in
        if json then json_line spec r else text_summary spec r;
        0
  in
  Cmd.v
    (Cmd.info "repack"
       ~doc:
         "Replay a trace with budget-constrained repacking: migrate \
          sessions to drain sparse servers early, metered by a recourse \
          budget.")
    Term.(
      const run $ trace $ policy_arg $ budget $ repack $ sweep
      $ assert_monotone $ json $ verify $ verbose_arg)

(* ---- metrics -------------------------------------------------------- *)

let metrics_cmd =
  let trace = trace_arg ~doc:"Input trace CSV (see $(b,generate))." in
  let profile =
    Arg.(value & flag
         & info [ "profile" ]
             ~doc:
               "Also print per-phase wall-time spans (non-deterministic; \
                off by default so the metric output stays reproducible).")
  in
  let run trace policy_name profile verbose =
    setup_verbose verbose;
    let instance = load_trace trace in
    let policy = resolve_policy ~mu:(Instance.mu instance) policy_name in
    let metrics = Dbp_obs.Metrics.create () in
    let prof = if profile then Some (Dbp_obs.Profile.create ()) else None in
    let packing = Simulator.run ~metrics ?profile:prof ~policy instance in
    Format.printf "%a@." Packing.pp_summary packing;
    List.iter
      (fun t -> print_string (Dbp_analysis.Table.render t))
      (Dbp_experiments.Exp_common.metrics_tables metrics);
    Option.iter
      (fun p ->
        print_string
          (Dbp_analysis.Table.render
             (Dbp_experiments.Exp_common.profile_table
                (Dbp_obs.Profile.spans p))))
      prof;
    0
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Replay a trace with the metrics registry on and print counters, \
          gauges, exact sums and histogram summaries.")
    Term.(const run $ trace $ policy_arg $ profile $ verbose_arg)

(* ---- check ---------------------------------------------------------- *)

let check_cmd =
  let lint_flag =
    Arg.(value & flag
         & info [ "lint" ]
             ~doc:"Run the static lint pass (R1..R7) over the source roots.")
  in
  let audit_flag =
    Arg.(value & flag
         & info [ "audit" ]
             ~doc:
               "Run the engine self-audit: seeded workloads and fault \
                storms under the runtime invariant auditor, asserting \
                audited and unaudited runs are bit-identical.")
  in
  let typed_flag =
    Arg.(value & flag
         & info [ "typed" ]
             ~doc:
               "Run the type-aware lint tier (T1..T4) over the .cmt \
                typedtrees dune left under _build (build first).  \
                Combines with --lint into one report against one \
                baseline.")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit machine-readable JSON.")
  in
  let strict =
    Arg.(value & flag
         & info [ "strict" ]
             ~doc:
               "Lint: fail on any non-baselined finding (default: only \
                error-severity findings fail).")
  in
  let roots =
    Arg.(value & opt_all string []
         & info [ "root" ]
             ~doc:"Source root(s) to lint (default: lib bin examples).")
  in
  let baseline_path =
    Arg.(value & opt string "lint-baseline.txt"
         & info [ "baseline" ] ~doc:"Baseline file of accepted findings.")
  in
  let no_baseline =
    Arg.(value & flag
         & info [ "no-baseline" ] ~doc:"Ignore the baseline file entirely.")
  in
  let update_baseline =
    Arg.(value & flag
         & info [ "update-baseline" ]
             ~doc:"Rewrite the baseline to accept every current finding.")
  in
  let rules_flag =
    Arg.(value & flag
         & info [ "rules" ] ~doc:"List the lint rule set and exit.")
  in
  let run lint_flag audit_flag typed_flag json strict roots baseline_path
      no_baseline update_baseline rules_flag seed =
    let open Dbp_lint in
    if rules_flag then begin
      List.iter
        (fun (r : Rules.rule) ->
          Format.printf "%s [%s] %s@.    %s@." r.Rules.id
            (Finding.severity_to_string r.Rules.severity)
            r.Rules.title r.Rules.what)
        (Rules.all_rules @ Typed_rules.all_typed_rules);
      0
    end
    else begin
      (* No tier selected: run the syntactic lint and the audit, as
         before --typed existed (the typed tier needs build artifacts,
         so it stays opt-in; dune's @lint alias supplies them). *)
      let lint_flag, audit_flag =
        if lint_flag || audit_flag || typed_flag then (lint_flag, audit_flag)
        else (true, true)
      in
      let lint_status =
        if not (lint_flag || typed_flag) then 0
        else begin
          let roots = if roots = [] then [ "lib"; "bin"; "examples" ] else roots in
          let baseline =
            if no_baseline then [] else Lint.load_baseline baseline_path
          in
          (* Both tiers feed ONE report against one baseline, so
             neither tier sees the other's accepted entries as stale. *)
          let collect_all () =
            let syntactic =
              if lint_flag then Lint.collect ~roots () else ([], 0)
            in
            let typed =
              if typed_flag then Typed_lint.collect ~roots () else ([], 0)
            in
            (fst syntactic @ fst typed, snd syntactic + snd typed)
          in
          let findings, files_scanned =
            match collect_all () with
            | r -> r
            | exception Failure msg ->
                Format.eprintf "dbp check: %s@." msg;
                exit 2
          in
          if update_baseline then begin
            Lint.save_baseline ~path:baseline_path findings;
            Format.printf "baseline updated: %s (%d finding(s) accepted)@."
              baseline_path (List.length findings);
            0
          end
          else begin
            let report = Lint.report_of ~baseline ~files_scanned findings in
            print_string
              (if json then Lint.render_json report
               else Lint.render_human report);
            Lint.exit_code ~strict report
          end
        end
      in
      let audit_status =
        if not audit_flag then 0
        else begin
          let open Dbp_core in
          let runs = ref 0 in
          let mismatches = ref 0 in
          let violation = ref None in
          let packing_identical (a : Packing.t) (b : Packing.t) =
            Dbp_num.Rat.equal a.Packing.total_cost b.Packing.total_cost
            && a.Packing.assignment = b.Packing.assignment
            && a.Packing.max_bins = b.Packing.max_bins
            && a.Packing.any_fit_violations = b.Packing.any_fit_violations
          in
          (try
             (* Fault-free workloads: every policy, two seeds. *)
             List.iter
               (fun s ->
                 let instance =
                   Dbp_workload.Generator.generate ~seed:s
                     { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 300 }
                 in
                 List.iter
                   (fun policy ->
                     let audited = Simulator.run ~audit:true ~policy instance in
                     let plain = Simulator.run ~audit:false ~policy instance in
                     incr runs;
                     if not (packing_identical audited plain) then
                       incr mismatches)
                   (Algorithms.all ()))
               [ seed; Int64.add seed 19L ];
             (* A crash storm through the injector, audited. *)
             let instance =
               Dbp_workload.Generator.generate ~seed
                 { Dbp_workload.Spec.default with Dbp_workload.Spec.count = 200 }
             in
             let horizon =
               Dbp_num.Interval.hi (Instance.packing_period instance)
             in
             let plan =
               Dbp_faults.Fault_plan.poisson_crashes ~seed ~rate:1.5 ~horizon
             in
             List.iter
               (fun policy ->
                 let r =
                   Dbp_faults.Injector.run ~audit:true ~plan ~policy instance
                 in
                 incr runs;
                 match Packing.validate r.Dbp_faults.Injector.packing with
                 | Ok () -> ()
                 | Error _ -> incr mismatches)
               (Algorithms.all ())
           with Audit.Audit_violation v -> violation := Some v);
          let ok = !violation = None && !mismatches = 0 in
          if json then
            Format.printf
              "{\"audit\": {\"runs\": %d, \"mismatches\": %d, \
               \"violation\": %s}}@."
              !runs !mismatches
              (match !violation with
              | None -> "null"
              | Some v ->
                  Printf.sprintf "\"%s\""
                    (Dbp_lint.Finding.json_escape (Audit.violation_to_string v)))
          else begin
            Format.printf
              "audit: %d run(s) under the invariant auditor, %d \
               audited-vs-plain mismatch(es)@."
              !runs !mismatches;
            match !violation with
            | None -> Format.printf "audit: no invariant violations@."
            | Some v -> Format.printf "audit: %s@." (Audit.violation_to_string v)
          end;
          if ok then 0 else 1
        end
      in
      max lint_status audit_status
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Correctness tooling: static lint pass (R1..R7) over the sources, \
          type-aware lint tier (T1..T4) over dune's .cmt typedtrees, \
          and/or the engine's runtime invariant self-audit.")
    Term.(
      const run $ lint_flag $ audit_flag $ typed_flag $ json $ strict $ roots
      $ baseline_path $ no_baseline $ update_baseline $ rules_flag $ seed_arg)

(* ---- serve ---------------------------------------------------------- *)

let serve_cmd =
  let shards =
    Arg.(value & opt int 1
         & info [ "shards" ]
             ~doc:"Shard the fleet across $(docv) domains (>= 1)." ~docv:"N")
  in
  let capacity =
    Arg.(value & opt rat_conv Rat.one
         & info [ "capacity" ] ~doc:"Bin capacity W (a rational).")
  in
  let route =
    Arg.(value & opt string "size-class"
         & info [ "route" ]
             ~doc:
               "Shard router: $(b,size-class) (MFF's large/small pool split; \
                large items own shard 0) or $(b,hash).")
  in
  let split_k =
    Arg.(value & opt rat_conv Rat.two
         & info [ "split-k" ]
             ~doc:
               "Size-class router divisor k (> 1): items of size >= \
                capacity/k are large.")
  in
  let grid_den =
    Arg.(value & opt (some int) None
         & info [ "grid-den" ] ~docv:"D"
             ~doc:
               "Run the shard engines on the fixed-point fast track with \
                size/time grid 1/$(docv) (default: exact rationals).")
  in
  let budget =
    Arg.(value & opt string "unlimited"
         & info [ "migration-budget" ] ~docv:"SPEC"
             ~doc:
               "Recourse budget for shard-loss migration (same specs as \
                $(b,dbp repack --budget)): $(b,8) (8 item-moves total), \
                $(b,items:total:8), $(b,volume:event:1/2), \
                $(b,items:bucket:1/4:8) (rate then burst), or \
                $(b,unlimited).")
  in
  let stdio =
    Arg.(value & flag
         & info [ "stdio" ]
             ~doc:"Serve a single NDJSON stream on stdin/stdout (default).")
  in
  let socket =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Daemon mode: listen on a Unix domain socket at $(docv).")
  in
  let tcp =
    Arg.(value & opt (some int) None
         & info [ "tcp" ] ~docv:"PORT"
             ~doc:"Daemon mode: listen on 127.0.0.1:$(docv).")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:
               "Client mode: stream the trace CSV $(docv) through an \
                in-process daemon (or a running one, with $(b,--connect)) \
                and print its summary line.")
  in
  let connect =
    Arg.(value & opt (some string) None
         & info [ "connect" ] ~docv:"PATH"
             ~doc:
               "With $(b,--replay): connect to a running daemon's Unix \
                socket instead of spawning one in-process.")
  in
  let echo =
    Arg.(value & flag
         & info [ "echo-placements" ]
             ~doc:"In replay mode, print every placement line.")
  in
  let bench =
    Arg.(value & flag
         & info [ "bench" ]
             ~doc:
               "Soak benchmark: drive $(b,--sessions) concurrent sessions \
                through a socketpair against a live daemon and emit the \
                dbp-bench-serve/1 JSON document.")
  in
  let sessions =
    Arg.(value & opt int 1_000_000
         & info [ "sessions" ] ~docv:"N"
             ~doc:
               "Soak sessions; each is one arrival and one departure, and \
                all $(docv) are resident at peak.")
  in
  let assert_floor =
    Arg.(value & opt (some file) None
         & info [ "assert-floor" ] ~docv:"FILE"
             ~doc:
               "With $(b,--bench): fail (exit 1) unless the soak sustains \
                the events-per-second floor read from $(docv) (first \
                non-comment line, see serve-floor.txt).")
  in
  let out =
    Arg.(value & opt (some string) None
         & info [ "o"; "out" ]
             ~doc:"With $(b,--bench): write the JSON here instead of stdout.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
         & info [ "checkpoint" ] ~docv:"PREFIX"
             ~doc:
               "On shutdown (SIGTERM or end of stream), write one \
                dbp-checkpoint/1 snapshot per shard to $(docv).shard<k>, \
                and each shard's engine-to-client session map to \
                $(docv).shard<k>.sessions.")
  in
  let run shards policy_name capacity seed route_name split_k grid_den
      budget_spec stdio socket tcp replay connect echo bench sessions
      assert_floor out checkpoint =
    let module S = Dbp_serve.Serve in
    let usage fmt =
      Format.kasprintf
        (fun m ->
          Format.eprintf "dbp serve: %s@." m;
          exit 2)
        fmt
    in
    if shards < 1 then usage "--shards must be >= 1, got %d" shards;
    let route =
      match Dbp_serve.Router.policy_of_string route_name with
      | Ok r -> r
      | Error msg -> usage "%s" msg
    in
    let budget =
      match Dbp_repack.Budget.spec_of_string budget_spec with
      | Ok spec -> spec
      | Error msg -> usage "--migration-budget: %s" msg
    in
    let cfg =
      {
        S.shards;
        policy = resolve_policy policy_name;
        policy_name;
        capacity;
        seed;
        route;
        split_k;
        grid_den;
        budget;
      }
    in
    let fail msg =
      Format.eprintf "dbp serve: %s@." msg;
      exit 2
    in
    let modes =
      (if stdio then 1 else 0)
      + (if Option.is_some socket then 1 else 0)
      + (if Option.is_some tcp then 1 else 0)
      + (if Option.is_some replay then 1 else 0)
      + (if bench then 1 else 0)
    in
    if modes > 1 then
      usage "choose one of --stdio, --socket, --tcp, --replay, --bench";
    if Option.is_some connect && Option.is_none replay then
      usage "--connect requires --replay";
    let echo_fn = if echo then Some print_endline else None in
    let serve_listener lfd cleanup =
      let should_stop = S.install_sigterm () in
      let result =
        Fun.protect ~finally:cleanup (fun () ->
            S.run_listener cfg ?checkpoint ~should_stop lfd)
      in
      match result with
      | Ok su ->
          print_endline (S.summary_line cfg su);
          0
      | Error msg -> fail msg
    in
    match (socket, tcp, replay, bench) with
    | Some path, None, None, false ->
        (try if Sys.file_exists path then Sys.remove path
         with Sys_error _ -> ());
        let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind lfd (Unix.ADDR_UNIX path);
        Unix.listen lfd 16;
        serve_listener lfd (fun () ->
            (try Unix.close lfd with Unix.Unix_error _ -> ());
            try Sys.remove path with Sys_error _ -> ())
    | None, Some port, None, false ->
        if port < 0 || port > 0xffff then usage "--tcp port out of range";
        let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.setsockopt lfd Unix.SO_REUSEADDR true;
        Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        Unix.listen lfd 16;
        serve_listener lfd (fun () ->
            try Unix.close lfd with Unix.Unix_error _ -> ())
    | None, None, Some trace, false -> (
        let instance = load_trace trace in
        let result =
          match connect with
          | None -> S.replay cfg ?echo:echo_fn instance
          | Some path ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close fd with Unix.Unix_error _ -> ())
                (fun () ->
                  Unix.connect fd (Unix.ADDR_UNIX path);
                  S.replay_client ?echo:echo_fn fd instance)
        in
        match result with
        | Ok summary ->
            print_endline summary;
            0
        | Error msg -> fail msg)
    | None, None, None, true -> (
        if sessions < 1 then usage "--sessions must be >= 1";
        match S.bench cfg ~sessions with
        | Error msg -> fail msg
        | Ok r -> (
            let body = S.bench_json cfg r in
            (match out with
            | Some path ->
                let oc = open_out path in
                output_string oc body;
                output_char oc '\n';
                close_out oc;
                Format.printf "wrote %s@." path
            | None -> print_endline body);
            match assert_floor with
            | None -> 0
            | Some path ->
                let floor = read_floor path in
                if r.S.br_events_per_s >= floor then begin
                  Format.printf "serve floor ok: %.0f events/s (floor %.0f)@."
                    r.S.br_events_per_s floor;
                  0
                end
                else begin
                  Format.eprintf
                    "serve perf regression: %.0f events/s is below the %.0f \
                     floor in %s@."
                    r.S.br_events_per_s floor path;
                  1
                end))
    | None, None, None, false -> (
        let should_stop = S.install_sigterm () in
        match
          S.run_stream cfg ?checkpoint ~should_stop ~input:Unix.stdin
            ~output:Unix.stdout ()
        with
        | Ok _ -> 0 (* the summary already went to the stream *)
        | Error msg -> fail msg)
    | _ -> usage "choose one of --stdio, --socket, --tcp, --replay, --bench"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-running sharded allocator daemon: stream dbp-trace/2 \
          arrive/depart events over stdio or a socket, answer each arrival \
          with a placement, shard bins across domains, and degrade \
          gracefully on shard loss via budget-aware migration.")
    Term.(
      const run $ shards $ policy_arg $ capacity $ seed_arg $ route $ split_k
      $ grid_den $ budget $ stdio $ socket $ tcp $ replay $ connect $ echo
      $ bench $ sessions $ assert_floor $ out $ checkpoint)

(* ---- main ----------------------------------------------------------- *)

let () =
  let doc = "MinTotal Dynamic Bin Packing (SPAA 2014) reproduction toolkit" in
  let info = Cmd.info "dbp" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        generate_cmd;
        simulate_cmd;
        opt_cmd;
        adversary_cmd;
        decompose_cmd;
        offline_cmd;
        diff_cmd;
        stats_cmd;
        experiments_cmd;
        faults_cmd;
        gaming_cmd;
        dvbp_cmd;
        bench_cmd;
        trace_cmd;
        checkpoint_cmd;
        repack_cmd;
        metrics_cmd;
        check_cmd;
        serve_cmd;
      ]
  in
  (* Validation failures are exit code 2 everywhere, never an uncaught
     exception: a scripted caller can rely on 0 = ok, 1 = semantic
     mismatch (failed checks), 2 = invalid input/usage. *)
  let code =
    try Cmd.eval' ~catch:false group with
    | Dbp_workload.Spec.Invalid_spec { field; reason } ->
        Format.eprintf "dbp: invalid spec: %s: %s@." field reason;
        2
    | Dbp_checkpoint.Checkpoint.Error msg ->
        Format.eprintf "dbp: %s@." msg;
        2
    | Simulator.Invalid_step msg | Simulator.Invalid_decision msg ->
        Format.eprintf "dbp: %s@." msg;
        2
    | Invalid_argument msg | Failure msg ->
        Format.eprintf "dbp: %s@." msg;
        2
    | Unix.Unix_error (err, fn, arg) ->
        Format.eprintf "dbp: %s: %s %s@." (Unix.error_message err) fn arg;
        2
  in
  exit code
