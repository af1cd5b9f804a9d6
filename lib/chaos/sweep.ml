module Pool = Mdcc_util.Pool
module Obs = Mdcc_obs.Obs
module Json = Mdcc_obs.Json
module Prof = Mdcc_obs.Prof

let specs ?workload ?txns ?items ?partitions ?fast_quorum_override ?capture_trace ~seeds
    ~scenarios () =
  List.concat_map
    (fun scenario ->
      List.init seeds (fun i ->
          Runner.spec ?workload ?txns ?items ?partitions ?fast_quorum_override
            ?capture_trace ~seed:(i + 1) ~scenario ()))
    scenarios

let run_one spec =
  let r = Runner.run spec in
  if Runner.ok r || spec.Runner.capture_trace then r
  else Runner.run { spec with Runner.capture_trace = true }

let run ?(jobs = Pool.default_jobs ()) specs =
  Prof.map_list ~jobs specs ~f:(fun spec -> Prof.span "sweep.run_one" (fun () -> run_one spec))

let run_profiled ?jobs specs = Prof.with_task (fun () -> run ?jobs specs)

let obs_doc reports =
  Json.Obj
    [
      ( "runs",
        Json.List
          (List.map
             (fun (r : Runner.report) ->
               Json.Obj
                 [
                   ("seed", Json.Int r.Runner.r_seed);
                   ("scenario", Json.Str r.Runner.r_scenario);
                   ("metrics", Obs.metrics_json r.Runner.r_obs);
                   ("spans", Obs.spans_json r.Runner.r_obs);
                 ])
             reports) );
    ]
