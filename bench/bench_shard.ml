(* The sharded Figure-4-style throughput bench.

     dune exec bench/bench_shard.exe -- --out BENCH_shard.json
     dune exec bench/bench_shard.exe -- --partitions 16 --clients 400 --items 40000

   Runs the TPC-W write workload over the full MDCC protocol on a
   multi-partition deployment — a scale-out series doubling the partition
   count (and the closed-loop client population with it) up to
   --partitions, all against the same --items keyspace — and reports
   committed transactions per second with p50/p99 commit latency per
   point.  This is Figure 4's methodology at a 10x larger keyspace than
   the quick experiment tier (800 items), with the keyspace hash-sharded
   across per-partition replica groups instead of one group holding
   everything.  Each point is Experiments.tpcw_point.

   The --out document is an Envelope (bench "shard", one section per
   point: p2, p4, p8, ...); BENCH_shard.json is the checked-in series. *)

module Stats = Mdcc_util.Stats
module Json = Mdcc_obs.Json
module Experiments = Mdcc_workload.Experiments
module Metrics = Mdcc_workload.Metrics
module Envelope = Mdcc_bench.Envelope

type point = {
  pt_partitions : int;
  pt_clients : int;
  pt_tps : float;
  pt_p50 : float;
  pt_p99 : float;
  pt_committed : int;
  pt_aborted : int;
  pt_wall_s : float;
}

let run_point ~items ~partitions ~clients =
  let t0 = Unix.gettimeofday () in
  let metrics, tps = Experiments.tpcw_point ~items ~partitions ~clients in
  let p50, p99 =
    match Metrics.summary metrics with
    | Some s -> (s.Stats.p50, s.Stats.p99)
    | None -> (0.0, 0.0)
  in
  {
    pt_partitions = partitions;
    pt_clients = clients;
    pt_tps = tps;
    pt_p50 = p50;
    pt_p99 = p99;
    pt_committed = Metrics.commit_count metrics;
    pt_aborted = Metrics.abort_count metrics;
    pt_wall_s = Unix.gettimeofday () -. t0;
  }

(* The scale-out series: partition counts doubling up to [partitions],
   clients growing proportionally so per-partition load stays constant
   (Figure 4 grows the offered load with the deployment). *)
let series ~partitions ~clients =
  let rec doublings p acc = if p >= partitions then List.rev (partitions :: acc) else doublings (p * 2) (p :: acc) in
  let ps = match doublings 1 [] with [ 1 ] -> [ 1 ] | 1 :: rest -> rest | ps -> ps in
  List.map (fun p -> (p, max 1 (clients * p / partitions))) ps

let point_section pt =
  ( Printf.sprintf "p%d" pt.pt_partitions,
    [
      ("partitions", Float.of_int pt.pt_partitions);
      ("clients", Float.of_int pt.pt_clients);
      ("txns_per_s", pt.pt_tps);
      ("p50_ms", pt.pt_p50);
      ("p99_ms", pt.pt_p99);
      ("committed", Float.of_int pt.pt_committed);
      ("aborted", Float.of_int pt.pt_aborted);
      ("wall_s", pt.pt_wall_s);
    ] )

let bench ~items ~partitions ~clients ~out =
  let pts = series ~partitions ~clients in
  Printf.printf "bench-shard: %d items, %d points up to %d partitions / %d clients\n%!" items
    (List.length pts) partitions clients;
  let points =
    List.map
      (fun (p, c) ->
        let pt = run_point ~items ~partitions:p ~clients:c in
        Printf.printf
          "  partitions=%-3d clients=%-4d  %8.1f txns/s  p50 %6.0f ms  p99 %6.0f ms  (%d c / %d a, %.1f s wall)\n%!"
          p c pt.pt_tps pt.pt_p50 pt.pt_p99 pt.pt_committed pt.pt_aborted pt.pt_wall_s;
        pt)
      pts
  in
  (match points with
  | first :: (_ :: _ as rest) ->
    let last = List.nth rest (List.length rest - 1) in
    if last.pt_tps > first.pt_tps then
      Printf.printf "  scale-out: %.2fx throughput from %d to %d partitions\n"
        (last.pt_tps /. first.pt_tps) first.pt_partitions last.pt_partitions
  | _ -> ());
  Option.iter
    (fun path ->
      Envelope.write path ~bench:"shard"
        ~config:
          [
            ("items", Json.Int items);
            ("clients", Json.Int clients);
            ("partitions", Json.Int partitions);
          ]
        (List.map point_section points);
      Printf.printf "  written: %s\n" path)
    out

open Cmdliner

let items_arg =
  Arg.(value & opt int 8_000 & info [ "items" ] ~docv:"N" ~doc:"TPC-W items (the keyspace).")

let clients_arg =
  Arg.(
    value & opt int 200
    & info [ "clients" ] ~docv:"N" ~doc:"Closed-loop clients at the largest point.")

let partitions_arg =
  Arg.(
    value & opt int 8
    & info [ "partitions" ] ~docv:"N" ~doc:"Largest partition count of the scale-out series.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the series as a bench document (schema mdcc.bench.v2).")

let () =
  let doc = "TPC-W throughput scale-out across keyspace partitions (Figure-4 style)" in
  let run items clients partitions out = bench ~items ~partitions ~clients ~out in
  let cmd =
    Cmd.v
      (Cmd.info "bench-shard" ~doc)
      Term.(const run $ items_arg $ clients_arg $ partitions_arg $ out_arg)
  in
  exit (Cmd.eval cmd)
