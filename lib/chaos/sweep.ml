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
let default_chunk ~jobs ~count = max 1 (count / (max 1 jobs * 8))

let resolve_chunk ?chunk ~jobs ~count () =
  match chunk with
  | Some c ->
    if c < 1 then invalid_arg "Sweep: chunk < 1";
    c
  | None -> default_chunk ~jobs ~count

let run_on ?chunk pool specs =
  let chunk =
    resolve_chunk ?chunk ~jobs:(Pool.jobs pool) ~count:(List.length specs) ()
  in
  Pool.map_list pool ~chunk specs ~f:run_one

let run ?jobs ?chunk specs =
  Pool.with_pool ?jobs (fun pool -> run_on ?chunk pool specs)

(* Profiled variant: each {e chunk} of consecutive runs executes under one
   [Prof.with_task] (a fresh enabled per-domain profiler handle), and the
   per-chunk snapshots fold together in chunk order — exactly the
   [Registry.merge] discipline, so the aggregate is independent of which
   domain ran what.  Bracketing the chunk rather than every run amortizes
   the handle/snapshot/merge cost across the chunk; the per-run
   ["sweep.run_one"] span inside is unchanged, so phase paths and counts
   are those of a per-run profile.  The reports are the same values [run]
   returns; only the extra snapshot channel differs, keeping
   report/obs-out bytes identical with or without profiling. *)
let run_profiled ?jobs ?chunk specs =
  let pairs, pool_stats =
    Pool.with_pool ?jobs (fun pool ->
        let chunk =
          resolve_chunk ?chunk ~jobs:(Pool.jobs pool)
            ~count:(List.length specs) ()
        in
        let groups = Pool.chunks chunk specs in
        let before = Pool.stats pool in
        let pairs =
          Pool.map_list pool groups ~f:(fun group ->
              Prof.with_task (fun () ->
                  List.map
                    (fun spec -> Prof.span "sweep.run_one" (fun () -> run_one spec))
                    group))
        in
        let after = Pool.stats pool in
        ( pairs,
          Pool.
            {
              batches = after.batches - before.batches;
              tasks = after.tasks - before.tasks;
              stolen = after.stolen - before.stolen;
            } ))
  in
  let reports = List.concat_map fst pairs in
  let profile =
    List.fold_left
      (fun acc (_, snap) -> Prof.merge acc snap)
      Prof.empty_snapshot pairs
  in
  let profile =
    Prof.merge profile
      {
        Prof.sn_phases = [];
        sn_counters =
          [
            ("pool.batches", pool_stats.Pool.batches);
            ("pool.stolen", pool_stats.Pool.stolen);
            ("pool.tasks", pool_stats.Pool.tasks);
          ];
      }
  in
  (reports, profile)

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
