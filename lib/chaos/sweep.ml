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

(* Default claim granularity: coarse enough that cursor traffic and
   per-task bookkeeping are a rounding error (about eight claims per
   domain), fine enough that the domains stay load-balanced when run
   costs vary.  Chunking never changes output: tasks keep their indices,
   so results merge in spec order whatever the granularity. *)
let run ?jobs ?chunk specs =
  Pool.with_pool ?jobs (fun pool ->
      let chunk =
        match chunk with
        | Some c ->
          if c < 1 then invalid_arg "Sweep: chunk < 1";
          c
        | None -> max 1 (List.length specs / (Pool.jobs pool * 8))
      in
      Prof.map_list pool ~chunk specs ~f:(fun spec ->
          Prof.span "sweep.run_one" (fun () -> run_one spec)))

let run_profiled ?jobs ?chunk specs = Prof.with_task (fun () -> run ?jobs ?chunk specs)

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
