(* Every metric the benchmark reports, by name.  BENCHMARK.json lists the
   same names; [check_benchmark] fails when the two disagree.

   Every workload reports every metric.  An "op" is the workload's unit of
   work: a decided transaction (tpcw, hotspot), a scenario run (chaos) or
   an answered request (wire).  A per-layer metric of a layer a workload
   does not exercise, or does not attribute, reads 0 there; time shares
   ([*_frac]) are shares of the run's executor time (Engine.run, or the
   server loop's wall time on wire), so that no time-valued metric is
   structurally zero on any workload.  End-to-end metrics are never 0. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "vt_commit_p50_ms" "ms" Lower;
    m "vt_commit_p99_ms" "ms" Lower;
    m "success_frac" "frac" Higher;
    m "msgs_per_op" "count" Lower;
    m "minor_words_per_op" "words" Lower;
    m "peak_heap_mb" "MB" Lower;
  ]

let per_layer =
  [
    m "ops_per_cpu_s" "1/s" Higher;
    m "get_p50_ms" "ms" Lower;
    m "get_p99_ms" "ms" Lower;
    m "set_p50_ms" "ms" Lower;
    m "set_p99_ms" "ms" Lower;
    m "runtime.events_per_op" "count" Lower;
    m "runtime.self_us_per_event" "us" Lower;
    m "runtime.words_per_event" "words" Lower;
    m "net.bytes_per_op" "bytes" Lower;
    m "net.send_frac" "frac" Lower;
    m "coordinator.self_frac" "frac" Lower;
    m "coordinator.words_per_op" "words" Lower;
    m "coordinator.fast_commit_frac" "frac" Higher;
    m "coordinator.collisions_per_op" "count" Lower;
    m "coordinator.redirects_per_op" "count" Lower;
    m "coordinator.timeout_recoveries_per_op" "count" Lower;
    m "storage_node.self_frac" "frac" Lower;
    m "storage_node.msgs_per_op" "count" Lower;
    m "storage_node.words_per_msg" "words" Lower;
    m "storage_node.option_accept_frac" "frac" Higher;
    m "storage_node.phase1_rounds_per_op" "count" Lower;
    m "storage_node.recoveries_per_op" "count" Lower;
    m "storage_node.repairs_per_op" "count" Lower;
  ]
  @ List.concat_map
      (fun k ->
        [
          m (Printf.sprintf "storage_node.%s.per_op" k) "count" Lower;
          m (Printf.sprintf "storage_node.%s.self_frac" k) "frac" Lower;
        ])
      Layers.reported_kinds
  @ [
      m "workload.gen_frac" "frac" Lower;
      m "workload.reads_per_op" "count" Lower;
      m "workload.abort_frac" "frac" Lower;
      m "gc.minor_collections_per_kop" "count" Lower;
      m "gc.major_collections_per_kop" "count" Lower;
      m "gc.major_words_per_op" "words" Lower;
      m "chaos.violating_run_frac" "frac" Lower;
      m "chaos.history_events_per_run" "count" Lower;
      m "chaos.engine_frac" "frac" Lower;
      m "chaos.rerun_runs" "count" Lower;
      m "wire.handler_self_frac" "frac" Lower;
      m "wire.backend_get_frac" "frac" Lower;
      m "wire.backend_set_frac" "frac" Lower;
      m "wire.msgs_per_set" "count" Lower;
      m "wire.bytes_per_req" "bytes" Lower;
      m "wire.max_rate_rps" "1/s" Higher;
      m "loop.select_frac" "frac" Higher;
      m "loop.io_frac" "frac" Lower;
      m "loop.timers_frac" "frac" Lower;
      m "loop.drain_frac" "frac" Lower;
      m "loop.polls_per_req" "count" Lower;
      m "gen.late_p99_ms" "ms" Lower;
      m "gen.late_max_ms" "ms" Lower;
      m "trace_overhead_frac" "frac" Lower;
    ]

let better_name = function Lower -> "lower" | Higher -> "higher"

(* Names and units of BENCHMARK.json's two metric lists, checked against
   this catalog.  Returns the mismatches. *)
let check_benchmark doc =
  let module Json = Mdcc_obs.Json in
  let listed key =
    List.filter_map
      (fun j ->
        match (Json.member "name" j, Json.member "unit" j, Json.member "better" j) with
        | Some (Json.Str n), Some (Json.Str u), Some (Json.Str b) -> Some (n, u, b)
        | _ -> None)
      (Json.to_list (Option.value (Json.member key doc) ~default:(Json.List [])))
  in
  let against key ours =
    let theirs = listed key in
    let missing =
      List.filter_map
        (fun x ->
          match List.find_opt (fun (n, _, _) -> String.equal n x.name) theirs with
          | None -> Some (Printf.sprintf "%s: %s missing" key x.name)
          | Some (_, u, b)
            when not (String.equal u x.unit_ && String.equal b (better_name x.better)) ->
            Some (Printf.sprintf "%s: %s declared as %s/%s" key x.name u b)
          | Some _ -> None)
        ours
    in
    let extra =
      List.filter_map
        (fun (n, _, _) ->
          if List.exists (fun x -> String.equal x.name n) ours then None
          else Some (Printf.sprintf "%s: %s is not reported" key n))
        theirs
    in
    missing @ extra
  in
  against "end_to_end" end_to_end @ against "per_layer" per_layer

(* Bound of an end-to-end metric from BENCHMARK.json. *)
let bounds doc =
  let module Json = Mdcc_obs.Json in
  List.filter_map
    (fun j ->
      match (Json.member "name" j, Doc.member_num "bound" j) with
      | Some (Json.Str n), Some b -> Some (n, b)
      | _ -> None)
    (Json.to_list (Option.value (Json.member "end_to_end" doc) ~default:(Json.List [])))
