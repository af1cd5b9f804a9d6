(* mdcc-experiments: command-line front end for the evaluation harness.

     dune exec bin/experiments_cli.exe -- run fig3 fig5
     dune exec bin/experiments_cli.exe -- run --all --quick
     dune exec bin/experiments_cli.exe -- run fig5 --metrics-out fig5-metrics.json
     dune exec bin/experiments_cli.exe -- demo --trace
     dune exec bin/experiments_cli.exe -- list *)

module Experiments = Mdcc_workload.Experiments
module Obs = Mdcc_obs.Obs
module Json = Mdcc_obs.Json
module Prof = Mdcc_obs.Prof
module Envelope = Mdcc_bench.Envelope
module Pool = Mdcc_util.Pool

(* Bad knobs are usage errors: a message on stderr and exit 2, before any
   run starts. *)
let usage_error fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 2) fmt

(* Output files are opened before the run, so an unwritable path fails
   fast instead of after the whole run. *)
let open_output flag path =
  match open_out path with
  | oc -> (path, oc)
  | exception Sys_error msg -> usage_error "%s: cannot write (%s)" flag msg

let write_json oc doc =
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

open Cmdliner

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Run at a reduced, CI-sized scale.")

let list_cmd =
  let doc = "List the available experiments." in
  let run () =
    List.iter
      (fun (e : Experiments.experiment) -> Printf.printf "  %-6s %s\n" e.id e.doc)
      Experiments.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let metrics_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Write the run's aggregate protocol metrics (the snapshot of the one registry \
           every experiment of the run reports to) to $(docv) as JSON.")

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the figure fan-outs (default: cores - 1, at least 1).  Results \
           and metric exports are merged in task order, so output is byte-identical to \
           $(b,--jobs 1).")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Profile the whole run (per-phase wall/alloc breakdown, merged across worker \
           domains in task order) and write it to $(docv) as a bench document (schema \
           mdcc.bench.v2, bench profile).  Figure outputs and $(b,--metrics-out) bytes are \
           unchanged — the profile is a separate channel.")

let run_cmd =
  let doc = "Reproduce one or more of the paper's figures (default: all)." in
  let ids =
    let ids = List.map (fun (e : Experiments.experiment) -> (e.id, e)) Experiments.all in
    Arg.(
      value
      & pos_all (enum ids) []
      & info [] ~docv:"EXPERIMENT"
          ~doc:(Printf.sprintf "An experiment to run, %s." (Arg.doc_alts_enum ids)))
  in
  let all = Arg.(value & flag & info [ "all" ] ~doc:"Run every experiment.") in
  let run quick all ids metrics_out jobs profile =
    if jobs < 1 then usage_error "--jobs must be at least 1 (got %d)" jobs;
    let metrics_out = Option.map (open_output "--metrics-out") metrics_out in
    let profile = Option.map (open_output "--profile") profile in
    (* The export handle: every experiment of this run reports into it. *)
    let obs = Obs.create () in
    let body () =
      let ids = if all || ids = [] then Experiments.all else ids in
      List.iter (fun (e : Experiments.experiment) -> e.run ~quick ~jobs ~obs ()) ids
    in
    (match profile with
    | None -> body ()
    | Some (path, oc) ->
      close_out oc;
      let (), snapshot = Prof.with_task body in
      Envelope.write path ~bench:"profile"
        ~config:[ ("command", Json.Str "experiments_cli run"); ("jobs", Json.Int jobs) ]
        (Prof.sections ~leg:"run" snapshot);
      Printf.printf "profile written to %s\n" path);
    Option.iter
      (fun (path, oc) ->
        write_json oc (Obs.metrics_json obs);
        Printf.printf "metrics written to %s\n" path)
      metrics_out
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(const run $ quick_flag $ all $ ids $ metrics_out_arg $ jobs_arg $ profile_arg)

let demo_cmd =
  let doc = "Run one multi-record transaction with protocol tracing." in
  let trace =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print every protocol decision with timestamps.")
  in
  let run trace =
    Experiments.demo
      ?trace:(if trace then Some print_endline else None)
      ~on_decided:(fun outcome at ->
        Printf.printf "demo transaction: %s after %.0f ms\n"
          (Format.asprintf "%a" Mdcc_storage.Txn.pp_outcome outcome)
          at)
      ()
  in
  Cmd.v (Cmd.info "demo" ~doc) Term.(const run $ trace)

let () =
  let doc = "Reproduce the MDCC paper's evaluation on the simulated WAN." in
  let info = Cmd.info "mdcc-experiments" ~doc in
  exit (Cmd.eval (Cmd.group info [ run_cmd; list_cmd; demo_cmd ]))
