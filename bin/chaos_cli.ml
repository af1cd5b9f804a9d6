(* mdcc-chaos: seed-sweeping chaos runner.

     dune exec bin/chaos_cli.exe -- sweep --seeds 50
     dune exec bin/chaos_cli.exe -- sweep --seeds 20 --scenario dc_outage --json
     dune exec bin/chaos_cli.exe -- sweep --seeds 10 --obs-out obs.json
     dune exec bin/chaos_cli.exe -- sweep --seeds 50 --plant-bug 3
     dune exec bin/chaos_cli.exe -- replay --seed 17 --scenario random --trace
     dune exec bin/chaos_cli.exe -- list

   Sweeps N seeds across the scenario matrix (clean, DC outage, asymmetric
   partition, drop spike, latency surge, master failover, random), checking
   every run's history for safety violations.  Everything is deterministic:
   a violating (seed, scenario) pair replays its violation exactly. *)

module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Sweep = Mdcc_chaos.Sweep
module Baseline = Mdcc_chaos.Baseline
module Pool = Mdcc_util.Pool
module Json = Mdcc_obs.Json
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof
module Registry = Mdcc_obs.Registry
module Envelope = Mdcc_bench.Envelope

(* Unknown names are usage errors: a message on stderr and exit 2. *)
let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

let resolve_scenario name =
  match Nemesis.scenario_named name with
  | Some s -> s
  | None -> usage_error "unknown scenario %S (see `chaos_cli list')" name

let resolve_workload = function
  | "deltas" -> Runner.Deltas
  | "rmw" -> Runner.Rmw
  | "mixed" -> Runner.Mixed
  | w -> usage_error "unknown workload %S (deltas|rmw|mixed)" w

(* Out-of-range knobs are usage errors too, rejected before any run
   starts: a run would trip an invariant on them ([Rng.int] with bound 0,
   [Config.make]'s fast-quorum range over the runner's five replicas),
   or quietly do something else (no runs at all, no transactions, one
   partition). *)
let at_least_one flag n = if n < 1 then usage_error "%s must be at least 1 (got %d)" flag n

let check_plant_bug = function
  | Some q when q < 1 || q > 5 -> usage_error "--plant-bug must be in [1, 5] (got %d)" q
  | Some _ | None -> ()

(* Output files are opened before any run, so an unwritable path fails
   fast instead of after the whole sweep. *)
let open_output flag path =
  try open_out path with Sys_error msg -> usage_error "%s: cannot write (%s)" flag msg

let write_json oc doc =
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

(* A report in text mode, followed by its captured trace, if any was asked
   for. *)
let print_report ~verbose ~trace r =
  print_endline (Runner.report_to_string ~verbose r);
  if trace then begin
    print_endline "--- trace ---";
    List.iter print_endline r.Runner.r_trace
  end

(* One row per scenario, summed over its runs: the masters' recoveries
   ([recovery_start]), their Phase 1 rounds ([phase1_round]), the
   coordinators' timeout escalations ([timeout_recovery]) and rounds per
   recovery. *)
let print_recoveries scenarios reports =
  Printf.printf "\nrecoveries per scenario, summed over its seeds:\n  %-22s %14s %12s %16s %15s\n"
    "scenario" "recovery_start" "phase1_round" "timeout_recovery" "rounds/recovery";
  List.iter
    (fun (sc : Nemesis.scenario) ->
      let sum counter =
        List.fold_left
          (fun acc r ->
            if String.equal r.Runner.r_scenario sc.Nemesis.sc_name then
              acc + Registry.counter (Obs.registry r.Runner.r_obs) counter
            else acc)
          0 reports
      in
      let starts = sum "recovery_start" and rounds = sum "phase1_round" in
      Printf.printf "  %-22s %14d %12d %16d %15s\n" sc.Nemesis.sc_name starts rounds
        (sum "timeout_recovery")
        (if starts = 0 then "-" else Printf.sprintf "%.2f" (float rounds /. float starts)))
    scenarios

let sweep ~seeds ~scenario ~workload ~txns ~items ~partitions ~plant_bug ~json ~trace
    ~obs_out ~jobs ~profile =
  at_least_one "--seeds" seeds;
  at_least_one "--txns" txns;
  at_least_one "--partitions" partitions;
  at_least_one "--items" items;
  check_plant_bug plant_bug;
  at_least_one "--jobs" jobs;
  let scenarios =
    match scenario with
    | None -> Nemesis.matrix
    | Some names -> List.map resolve_scenario (String.split_on_char ',' names)
  in
  let workload = resolve_workload workload in
  let obs_out = Option.map (open_output "--obs-out") obs_out in
  Option.iter (fun path -> close_out (open_output "--profile" path)) profile;
  (* Scenario-major, seed-minor spec order; the pool merges reports back
     in that order, so output is byte-identical to a --jobs 1 sweep. *)
  let specs =
    Sweep.specs ~workload ~txns ~items ~partitions ?fast_quorum_override:plant_bug
      ~capture_trace:trace ~seeds ~scenarios ()
  in
  let all =
    match profile with
    | None -> Sweep.run ~jobs specs
    | Some path ->
      (* The profile rides its own file, a bench document: wall-clock
         durations are nondeterministic, so they must never share a
         channel with the byte-pinned report/obs-out outputs. *)
      let reports, snapshot = Sweep.run_profiled ~jobs specs in
      Envelope.write path ~bench:"profile"
        ~config:[ ("command", Json.Str "chaos_cli sweep"); ("jobs", Json.Int jobs) ]
        (Prof.sections ~leg:"run" snapshot);
      reports
  in
  let total = List.length all in
  List.iter
    (fun r ->
      if json then print_endline (Runner.report_to_json r)
      else print_report ~verbose:(not (Runner.ok r)) ~trace r)
    all;
  (* The sweep's full observability export, one JSON document. *)
  Option.iter (fun oc -> write_json oc (Sweep.obs_doc all)) obs_out;
  let bad = List.filter (fun r -> not (Runner.ok r)) all in
  if not json then begin
    Printf.printf "\n%d runs (%d seeds x %d scenarios): %d with violations\n" total seeds
      (List.length scenarios) (List.length bad);
    List.iter
      (fun r ->
        Printf.printf "  seed %d / %s: %s\n" r.Runner.r_seed r.Runner.r_scenario
          (String.concat "; "
             (List.map
                (fun v -> v.Mdcc_chaos.Checker.invariant)
                r.Runner.r_violations)))
      bad;
    print_recoveries scenarios all
  end;
  if bad <> [] then exit 1

let replay ~seed ~scenario ~workload ~txns ~items ~partitions ~plant_bug ~json ~trace =
  at_least_one "--txns" txns;
  at_least_one "--partitions" partitions;
  at_least_one "--items" items;
  check_plant_bug plant_bug;
  let scenario = resolve_scenario scenario in
  let workload = resolve_workload workload in
  let r =
    Runner.run
      (Runner.spec ~seed ~scenario ~workload ~txns ~items ~partitions
         ?fast_quorum_override:plant_bug ~capture_trace:trace ())
  in
  if json then print_endline (Runner.report_to_json r) else print_report ~verbose:true ~trace r;
  if not (Runner.ok r) then exit 1

open Cmdliner

let seeds_arg = Arg.(value & opt int 20 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario.")
let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"The seed to replay.")

let scenario_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "scenario" ] ~docv:"NAMES"
        ~doc:"Restrict the sweep to a comma-separated list of scenarios.")

let scenario_req =
  Arg.(value & opt string "random" & info [ "scenario" ] ~docv:"NAME" ~doc:"Scenario to run.")

let workload_arg =
  Arg.(
    value & opt string "mixed"
    & info [ "workload" ] ~docv:"W" ~doc:"Workload: deltas, rmw or mixed.")

let txns_arg =
  Arg.(value & opt int 40 & info [ "txns" ] ~docv:"N" ~doc:"Transactions per run.")

let items_arg = Arg.(value & opt int 4 & info [ "items" ] ~docv:"N" ~doc:"Stock rows per run.")

let partitions_arg =
  Arg.(
    value & opt int 1
    & info [ "partitions" ] ~docv:"N"
        ~doc:
          "Keyspace hash partitions of the deployed cluster.  A scenario that demands more \
           (the shard_* scenarios want 4) wins over a smaller value here.")

let plant_bug_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "plant-bug" ] ~docv:"Q"
        ~doc:
          "Deliberately shrink the fast quorum to $(docv) acceptors (e.g. 3 of 5), breaking \
           quorum intersection; the sweep must catch the resulting violations.")

let json_flag = Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per run.")

let trace_flag =
  Arg.(value & flag & info [ "trace" ] ~doc:"Capture the protocol trace in every report.")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the sweep (default: cores - 1, at least 1).  Reports are \
           merged in seed order, so output is byte-identical to $(b,--jobs 1).")

let obs_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "obs-out" ] ~docv:"FILE"
        ~doc:
          "Write every run's metrics snapshot and span trees to $(docv) as one JSON document \
           ({\"runs\":[{seed,scenario,metrics,spans},..]}).")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Profile the sweep (per-phase wall/alloc breakdown, merged across worker domains \
           in task order) and write it to $(docv) as a bench document (schema \
           mdcc.bench.v2, bench profile).  Reports and $(b,--obs-out) bytes are unchanged — \
           the profile is a separate channel.")

let sweep_cmd =
  let doc = "Sweep seeds across the scenario matrix and check every history." in
  let run seeds scenario workload txns items partitions plant_bug json trace obs_out jobs
      profile =
    sweep ~seeds ~scenario ~workload ~txns ~items ~partitions ~plant_bug ~json ~trace
      ~obs_out ~jobs ~profile
  in
  Cmd.v
    (Cmd.info "sweep" ~doc)
    Term.(
      const run $ seeds_arg $ scenario_opt $ workload_arg $ txns_arg $ items_arg
      $ partitions_arg $ plant_bug_arg $ json_flag $ trace_flag $ obs_out_arg $ jobs_arg
      $ profile_arg)

let replay_cmd =
  let doc = "Re-run a single (seed, scenario) pair, verbosely." in
  let run seed scenario workload txns items partitions plant_bug json trace =
    replay ~seed ~scenario ~workload ~txns ~items ~partitions ~plant_bug ~json ~trace
  in
  Cmd.v
    (Cmd.info "replay" ~doc)
    Term.(
      const run $ seed_arg $ scenario_req $ workload_arg $ txns_arg $ items_arg
      $ partitions_arg $ plant_bug_arg $ json_flag $ trace_flag)

let baselines ~seeds ~protocol ~txns ~items ~jobs =
  at_least_one "--seeds" seeds;
  at_least_one "--txns" txns;
  at_least_one "--items" items;
  at_least_one "--jobs" jobs;
  let protos =
    match protocol with
    | None -> Baseline.protocols
    | Some name -> (
      match Baseline.protocol_named name with
      | Some p -> [ p ]
      | None -> usage_error "unknown baseline %S (see `chaos_cli list')" name)
  in
  let tasks =
    List.concat_map (fun p -> List.init seeds (fun i -> (p, i + 1))) protos
  in
  let reports =
    Prof.map_list ~jobs tasks ~f:(fun (p, seed) -> Baseline.run ~txns ~items ~seed p)
  in
  List.iter (fun r -> print_endline (Baseline.report_to_string r)) reports;
  let bad = List.filter (fun r -> not (Baseline.ok r)) reports in
  Printf.printf "\n%d baseline runs (%d seeds x %d protocols): %d unexpected\n"
    (seeds * List.length protos)
    seeds (List.length protos) (List.length bad);
  if bad <> [] then exit 1

let protocol_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "protocol" ] ~docv:"NAME" ~doc:"Restrict the baseline sweep to one protocol.")

let baselines_cmd =
  let doc =
    "Sweep the comparison protocols (quorum writes, 2PC, Megastore*) through the history \
     checker.  Quorum writes must trip the lost-update invariant (the checker's canary); 2PC \
     and Megastore* must come back clean."
  in
  let run seeds protocol txns items jobs = baselines ~seeds ~protocol ~txns ~items ~jobs in
  Cmd.v
    (Cmd.info "baselines" ~doc)
    Term.(const run $ seeds_arg $ protocol_opt $ txns_arg $ items_arg $ jobs_arg)

let list_cmd =
  let doc = "List the scenario matrix and the baseline protocols." in
  let run () =
    Printf.printf "scenarios:\n";
    List.iter (fun s -> Printf.printf "  %s\n" s.Nemesis.sc_name) Nemesis.matrix;
    Printf.printf "baseline protocols:\n";
    List.iter (fun p -> Printf.printf "  %s\n" (Baseline.proto_name p)) Baseline.protocols
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let () =
  let doc = "deterministic fault-injection sweeps with history checking" in
  let info = Cmd.info "mdcc-chaos" ~doc in
  exit (Cmd.eval (Cmd.group info [ sweep_cmd; replay_cmd; baselines_cmd; list_cmd ]))
