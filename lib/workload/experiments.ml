module Stats = Mdcc_util.Stats
module Table = Mdcc_util.Table
module Rng = Mdcc_util.Rng
module Pool = Mdcc_util.Pool
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof
module Topology = Mdcc_sim.Topology

type latency_row = {
  proto : string;
  summary : Stats.summary option;
  cdf : (float * float) list;
  commits : int;
  aborts : int;
}

type scale = {
  clients : int;
  items : int;
  partitions : int;
  warmup : float;
  duration : float;
  drain : float;
  seed : int;
}

let bench_scale =
  {
    clients = 100;
    items = 10_000;
    partitions = 2;
    warmup = 10_000.0;
    duration = 45_000.0;
    drain = 45_000.0;
    seed = 7;
  }

let quick_scale =
  {
    clients = 15;
    items = 600;
    partitions = 1;
    warmup = 2_000.0;
    duration = 8_000.0;
    drain = 20_000.0;
    seed = 7;
  }

let scale_of quick = if quick then quick_scale else bench_scale

let spec_of scale ~clients_per_dc =
  {
    Runner.clients_per_dc;
    warmup = scale.warmup;
    duration = scale.duration;
    drain = scale.drain;
    seed = scale.seed;
  }

let even_spread ~num_dcs clients =
  let base = clients / num_dcs and extra = clients mod num_dcs in
  Array.init num_dcs (fun dc -> base + if dc < extra then 1 else 0)

let progress fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Run [f ~obs] once per list element, each against a fresh obs handle,
   on [jobs] domains.  Afterwards every handle is folded into [into] {e in
   task order}, so the metrics export ([--metrics-out]) is identical
   whether the tasks ran on one domain or eight; the map is
   [Prof.map_list], so a profile is too.  Tasks must not print; drivers
   print from the merged results after the map. *)
let par_map ~jobs ~into xs ~f =
  let tasks = List.map (fun x -> (x, Obs.create ())) xs in
  let results = Prof.map_list ~jobs tasks ~f:(fun (x, obs) -> f ~obs x) in
  List.iter (fun (_, obs) -> Obs.merge ~into obs) tasks;
  results

(* [par_map] over an outer x inner grid: one task per pair, outer-major,
   so every simulation is scheduled on its own and the handles still merge
   in that order; the results come back as one row per outer element. *)
let par_grid ~jobs ~into outer inner ~f =
  let tasks = List.concat_map (fun o -> List.map (fun i -> (o, i)) inner) outer in
  let flat = par_map ~jobs ~into tasks ~f:(fun ~obs (o, i) -> f ~obs o i) in
  List.combine outer (Pool.chunks (List.length inner) flat)

let row_of_metrics proto metrics =
  {
    proto;
    summary = Metrics.summary metrics;
    cdf = Stats.cdf ~points:20 (Metrics.commit_latencies metrics);
    commits = Metrics.commit_count metrics;
    aborts = Metrics.abort_count metrics;
  }

let median_str = function Some (s : Stats.summary) -> Table.fms s.Stats.p50 | None -> "-"

let p99_str = function Some (s : Stats.summary) -> Table.fms s.Stats.p99 | None -> "-"

let print_latency_table ~title ~paper_medians rows =
  Printf.printf "\n== %s ==\n" title;
  Table.print
    ~headers:[ "protocol"; "median(ms)"; "p90(ms)"; "p99(ms)"; "commits"; "aborts"; "paper median(ms)" ]
    (List.map
       (fun r ->
         let p90 =
           match r.summary with Some s -> Table.fms s.Stats.p90 | None -> "-"
         in
         [
           r.proto;
           median_str r.summary;
           p90;
           p99_str r.summary;
           string_of_int r.commits;
           string_of_int r.aborts;
           (match List.assoc_opt r.proto paper_medians with
           | Some v -> Table.fms v
           | None -> "-");
         ])
       rows);
  (* CDF curves, the figure's actual content. *)
  List.iter
    (fun r ->
      if r.cdf <> [] then begin
        Printf.printf "  CDF %-10s " r.proto;
        List.iter
          (fun (v, f) -> if Float.rem (f *. 100.0) 25.0 < 5.1 then Printf.printf "p%.0f=%.0fms " (f *. 100.0) v)
          r.cdf;
        print_newline ()
      end)
    rows

(* ------------------------------------------------------------------ *)
(* Figure 3: TPC-W response-time CDF                                    *)
(* ------------------------------------------------------------------ *)

let run_tpcw protocol scale ~all_in_dc ~obs =
  let rng = Rng.create ((scale.seed * 17) + 3) in
  let p =
    { Tpcw.default with items = scale.items; commutative = Setup.commutative protocol }
  in
  let rows = Tpcw.rows p ~rng in
  let harness =
    Setup.make protocol ~seed:scale.seed ~schema:Tpcw.schema ~partitions:scale.partitions ~obs
      ~rows ()
  in
  let clients_per_dc =
    match all_in_dc with
    | Some dc -> Array.init 5 (fun d -> if d = dc then scale.clients else 0)
    | None -> even_spread ~num_dcs:5 scale.clients
  in
  Runner.run harness (Tpcw.generator p) (spec_of scale ~clients_per_dc)

let tpcw_point ~items ~partitions ~clients =
  let scale = { quick_scale with items; partitions; clients } in
  let metrics = run_tpcw Setup.Mdcc scale ~all_in_dc:None ~obs:(Obs.create ()) in
  (metrics, Metrics.throughput metrics ~duration:scale.duration)

let fig3_protocols = [ Setup.Qw 3; Setup.Qw 4; Setup.Mdcc; Setup.Two_pc; Setup.Megastore ]

let fig3_paper_medians =
  [ ("QW-3", 188.0); ("QW-4", 260.0); ("MDCC", 278.0); ("2PC", 668.0); ("Megastore*", 17_810.0) ]

(* The paper plays in Megastore*'s favour: its clients (and master) all
   sit in US-West; everyone else gets geo-distributed clients. *)
let tpcw_all_in_dc = function
  | Setup.Megastore -> Some Topology.us_west
  | Setup.Mdcc | Setup.Fast | Setup.Multi | Setup.Qw _ | Setup.Two_pc -> None

let fig3 ?(quick = false) ?(jobs = 1) ~obs () =
  let scale = scale_of quick in
  progress "[fig3] running %d protocols..." (List.length fig3_protocols);
  let rows =
    par_map ~jobs ~into:obs fig3_protocols ~f:(fun ~obs protocol ->
        let metrics = run_tpcw protocol scale ~all_in_dc:(tpcw_all_in_dc protocol) ~obs in
        row_of_metrics (Setup.name protocol) metrics)
  in
  print_latency_table ~title:"Figure 3: TPC-W write transaction response times (CDF)"
    ~paper_medians:fig3_paper_medians rows;
  rows

(* ------------------------------------------------------------------ *)
(* Figure 4: TPC-W throughput scale-out                                 *)
(* ------------------------------------------------------------------ *)

let fig4 ?(quick = false) ?(jobs = 1) ~obs () =
  let base = scale_of quick in
  let points =
    if quick then [ (10, 400, 1); (20, 800, 2) ]
    else [ (50, 5_000, 2); (100, 10_000, 4); (200, 20_000, 8); (400, 40_000, 16) ]
  in
  progress "[fig4] running %d protocol/scale points..."
    (List.length fig3_protocols * List.length points);
  let results =
    par_grid ~jobs ~into:obs fig3_protocols points
      ~f:(fun ~obs protocol (clients, items, partitions) ->
        let scale = { base with clients; items; partitions } in
        let metrics = run_tpcw protocol scale ~all_in_dc:(tpcw_all_in_dc protocol) ~obs in
        (clients, Metrics.throughput metrics ~duration:scale.duration))
    |> List.map (fun (protocol, series) -> (Setup.name protocol, series))
  in
  Printf.printf "\n== Figure 4: TPC-W committed transactions per second (scale-out) ==\n";
  let headers =
    "protocol" :: List.map (fun (c, _, _) -> Printf.sprintf "%d clients" c) points
  in
  Table.print ~headers
    (List.map
       (fun (name, series) -> name :: List.map (fun (_, tps) -> Table.fms tps) series)
       results);
  Printf.printf
    "  paper shape: QW highest; MDCC within ~10%% of QW-4; 2PC well below; Megastore* lowest and flat.\n";
  results

(* ------------------------------------------------------------------ *)
(* Figure 5: micro-benchmark response-time CDF                          *)
(* ------------------------------------------------------------------ *)

(* [events] schedules faults on the deployment it is given, such as
   fig8's data-center outage. *)
let run_micro protocol scale ~params ~master_dc_of ~gamma ~clients_per_dc ~obs
    ?(events = fun _ -> []) () =
  let rng = Rng.create ((scale.seed * 23) + 5) in
  let rows = Micro.rows params ~rng in
  let harness =
    Setup.make protocol ~seed:scale.seed ~schema:Micro.schema ~partitions:scale.partitions
      ~gamma ?master_dc_of ~obs ~rows ()
  in
  Runner.run ~events:(events harness) harness (Micro.generator params)
    (spec_of scale ~clients_per_dc)

let fig5_protocols = [ Setup.Mdcc; Setup.Fast; Setup.Multi; Setup.Two_pc ]

let fig5_paper_medians =
  [ ("MDCC", 245.0); ("Fast", 276.0); ("Multi", 388.0); ("2PC", 543.0) ]

let micro_params protocol scale =
  {
    Micro.default with
    num_items = scale.items;
    commutative = Setup.commutative protocol;
  }

let fig5 ?(quick = false) ?(jobs = 1) ~obs () =
  let scale = scale_of quick in
  progress "[fig5] running %d protocols..." (List.length fig5_protocols);
  let rows =
    par_map ~jobs ~into:obs fig5_protocols ~f:(fun ~obs protocol ->
        let params = micro_params protocol scale in
        let metrics =
          run_micro protocol scale ~params ~master_dc_of:None ~gamma:100
            ~clients_per_dc:(even_spread ~num_dcs:5 scale.clients) ~obs ()
        in
        row_of_metrics (Setup.name protocol) metrics)
  in
  print_latency_table ~title:"Figure 5: micro-benchmark response times (CDF)"
    ~paper_medians:fig5_paper_medians rows;
  rows

(* ------------------------------------------------------------------ *)
(* Figure 6: commits/aborts vs. hot-spot size                           *)
(* ------------------------------------------------------------------ *)

let fig6_protocols = [ Setup.Two_pc; Setup.Multi; Setup.Fast; Setup.Mdcc ]

let fig6 ?(quick = false) ?(jobs = 1) ~obs () =
  let scale = scale_of quick in
  let hotspots = if quick then [ 0.02; 0.90 ] else [ 0.02; 0.05; 0.10; 0.20; 0.50; 0.90 ] in
  progress "[fig6] running %d hotspot/protocol points..."
    (List.length hotspots * List.length fig6_protocols);
  let results =
    par_grid ~jobs ~into:obs hotspots fig6_protocols ~f:(fun ~obs hotspot protocol ->
        (* Finite stock matters here: with a small hot spot the hot items
           approach the demarcation limit, which is what makes the
           commutative path collide and degrade at 2% in the paper. *)
        let params =
          { (micro_params protocol scale) with Micro.hotspot = Some (hotspot, 0.9) }
        in
        let metrics =
          run_micro protocol scale ~params ~master_dc_of:None ~gamma:100
            ~clients_per_dc:(even_spread ~num_dcs:5 scale.clients) ~obs ()
        in
        (Setup.name protocol, Metrics.commit_count metrics, Metrics.abort_count metrics))
  in
  Printf.printf "\n== Figure 6: commits/aborts for varying hot-spot sizes ==\n";
  Table.print
    ~headers:[ "hotspot"; "protocol"; "commits"; "aborts" ]
    (List.concat_map
       (fun (h, per_proto) ->
         List.map
           (fun (name, c, a) ->
             [ Printf.sprintf "%.0f%%" (h *. 100.0); name; string_of_int c; string_of_int a ])
           per_proto)
       results);
  Printf.printf
    "  paper shape: large hotspot (low conflict): MDCC most commits; 5%%: Fast below Multi; 2%%: Fast & MDCC collapse.\n";
  results

(* ------------------------------------------------------------------ *)
(* Figure 7: response times vs. master locality                         *)
(* ------------------------------------------------------------------ *)

let fig7_protocols = [ Setup.Multi; Setup.Mdcc ]

let fig7 ?(quick = false) ?(jobs = 1) ~obs () =
  let scale = scale_of quick in
  let localities = if quick then [ 1.0; 0.2 ] else [ 1.0; 0.8; 0.6; 0.4; 0.2 ] in
  let master_dc_of = Some (Micro.master_dc_of ~num_dcs:5) in
  progress "[fig7] running %d locality/protocol points..."
    (List.length localities * List.length fig7_protocols);
  let results =
    par_grid ~jobs ~into:obs localities fig7_protocols ~f:(fun ~obs locality protocol ->
        let params =
          { (micro_params protocol scale) with Micro.locality = Some locality }
        in
        let metrics =
          run_micro protocol scale ~params ~master_dc_of ~gamma:100
            ~clients_per_dc:(even_spread ~num_dcs:5 scale.clients) ~obs ()
        in
        let latencies = Metrics.commit_latencies metrics in
        let box =
          match Stats.boxplot latencies with
          | Some b -> b
          | None ->
            { Stats.whisker_lo = 0.; q1 = 0.; median = 0.; q3 = 0.; whisker_hi = 0.; outliers = 0 }
        in
        (Setup.name protocol, box))
  in
  Printf.printf "\n== Figure 7: response times for varying master locality (boxplots) ==\n";
  Table.print
    ~headers:[ "locality"; "protocol"; "lo"; "q1"; "median"; "q3"; "hi" ]
    (List.concat_map
       (fun (l, per_proto) ->
         List.map
           (fun (name, (b : Stats.boxplot)) ->
             [
               Printf.sprintf "%.0f%%" (l *. 100.0);
               name;
               Table.fms b.Stats.whisker_lo;
               Table.fms b.Stats.q1;
               Table.fms b.Stats.median;
               Table.fms b.Stats.q3;
               Table.fms b.Stats.whisker_hi;
             ])
           per_proto)
       results);
  Printf.printf "  paper shape: Multi beats MDCC only near 100%% locality; MDCC flat across localities.\n";
  results

(* ------------------------------------------------------------------ *)
(* Figure 8: data-center failure                                        *)
(* ------------------------------------------------------------------ *)

let fig8 ?(quick = false) ?jobs:_ ~obs () =
  let scale = scale_of quick in
  (* All clients in US-West; kill US-East (the closest DC) mid-run. *)
  let total = if quick then 30_000.0 else 240_000.0 in
  let fail_at = total /. 2.0 in
  let scale = { scale with warmup = 0.0; duration = total } in
  progress "[fig8] running the outage timeline...";
  let metrics =
    run_micro Setup.Mdcc scale ~params:(micro_params Setup.Mdcc scale) ~master_dc_of:None
      ~gamma:100
      ~clients_per_dc:(Array.init 5 (fun d -> if d = Topology.us_west then scale.clients else 0))
      ~obs
      ~events:(fun harness ->
        [ (fail_at, fun () -> harness.Mdcc_protocols.Harness.fail_dc Topology.us_east) ])
      ()
  in
  let series = Metrics.latency_series metrics in
  let before = List.filter_map (fun (t, l) -> if t < fail_at then Some l else None) series in
  let skip = 2_000.0 in
  let after =
    List.filter_map (fun (t, l) -> if t >= fail_at +. skip then Some l else None) series
  in
  let mean_before = Stats.mean before and mean_after = Stats.mean after in
  let buckets = Stats.time_series ~width:10_000.0 series in
  Printf.printf "\n== Figure 8: response times across a US-East outage at t=%.0fs ==\n"
    (fail_at /. 1000.0);
  Table.print
    ~headers:[ "t(s)"; "txns"; "mean latency(ms)" ]
    (List.map
       (fun (b : Stats.series_bucket) ->
         [
           Printf.sprintf "%.0f" (b.Stats.t_start /. 1000.0);
           string_of_int b.Stats.n;
           Table.fms b.Stats.mean_v;
         ])
       buckets);
  Printf.printf "  mean before failure: %.1f ms, after: %.1f ms (paper: 173.5 -> 211.7 ms)\n"
    mean_before mean_after;
  (mean_before, mean_after, buckets)

(* ------------------------------------------------------------------ *)
(* Ablation: fast-policy γ                                              *)
(* ------------------------------------------------------------------ *)

let ablation_gamma ?(quick = false) ?(jobs = 1) ~obs () =
  let scale = scale_of quick in
  let gammas = if quick then [ 0; 100 ] else [ 0; 10; 100; 1000 ] in
  progress "[ablation-gamma] running %d gamma settings..." (List.length gammas);
  let results =
    par_map ~jobs ~into:obs gammas ~f:(fun ~obs gamma ->
        let params =
          { (micro_params Setup.Mdcc scale) with
            Micro.hotspot = Some (0.05, 0.9);
            commutative = false (* force collisions so γ matters *) }
        in
        let metrics =
          run_micro Setup.Mdcc scale ~params ~master_dc_of:None ~gamma
            ~clients_per_dc:(even_spread ~num_dcs:5 scale.clients) ~obs ()
        in
        let median =
          match Metrics.summary metrics with Some s -> s.Stats.p50 | None -> 0.0
        in
        (gamma, (Metrics.commit_count metrics, Metrics.abort_count metrics, median)))
  in
  Printf.printf "\n== Ablation: fast-policy window γ (contended, non-commutative) ==\n";
  Table.print
    ~headers:[ "gamma"; "commits"; "aborts"; "median(ms)" ]
    (List.map
       (fun (g, (c, a, m)) -> [ string_of_int g; string_of_int c; string_of_int a; Table.fms m ])
       results);
  results

(* One MDCC deployment of the micro workload built by hand rather than
   through [Setup.make], for the ablations that vary its topology or its
   config: the cluster (for its network counters) and the run's metrics. *)
let run_mdcc_micro scale ~params ~spec ~config ~clients_per_dc ~obs =
  let rng = Rng.create ((scale.seed * 23) + 5) in
  let rows = Micro.rows params ~rng in
  let engine = Mdcc_sim.Engine.create ~seed:scale.seed in
  let cluster =
    Mdcc_core.Cluster.create ~engine ~spec ~config ~schema:Micro.schema
      ~ctx:(Mdcc_core.Ctx.make ~obs ()) ()
  in
  Mdcc_core.Cluster.load cluster rows;
  Mdcc_core.Cluster.start_maintenance cluster;
  let harness = Mdcc_protocols.Harness.of_mdcc cluster ~name:"MDCC" in
  (cluster, Runner.run harness (Micro.generator params) (spec_of scale ~clients_per_dc))

(* ------------------------------------------------------------------ *)
(* Ablation: replication factor (quorum sizes)                          *)
(* ------------------------------------------------------------------ *)

let ablation_replication ?(quick = false) ?(jobs = 1) ~obs () =
  let scale = scale_of quick in
  progress "[ablation-replication] running 2 replication factors...";
  let results =
    par_map ~jobs ~into:obs [ 3; 5 ] ~f:(fun ~obs dcs ->
        let params = { (micro_params Setup.Mdcc scale) with Micro.num_dcs = dcs } in
        let config = Mdcc_core.Config.make ~mode:Mdcc_core.Config.Full ~replication:dcs () in
        (* First [dcs] EC2 regions. *)
        let base = Topology.ec2_five ~nodes_per_dc:scale.partitions () in
        let topology =
          Topology.make
            ~dc_names:(Array.sub base.Topology.dc_names 0 dcs)
            ~rtt:(Array.init dcs (fun i -> Array.sub base.Topology.rtt.(i) 0 dcs))
            ~nodes_per_dc:scale.partitions ()
        in
        let _, metrics =
          run_mdcc_micro scale ~params
            ~spec:(Mdcc_core.Cluster.Spec.make ~topology ~partitions:scale.partitions ())
            ~config ~clients_per_dc:(even_spread ~num_dcs:dcs scale.clients) ~obs
        in
        let median = match Metrics.summary metrics with Some s -> s.Stats.p50 | None -> 0.0 in
        (dcs, Metrics.commit_count metrics, median))
  in
  Printf.printf "\n== Ablation: replication factor (fast quorum |Q_F|) ==\n";
  Table.print
    ~headers:[ "DCs"; "Qc"; "Qf"; "commits"; "median(ms)" ]
    (List.map
       (fun (dcs, commits, median) ->
         [
           string_of_int dcs;
           string_of_int (Mdcc_paxos.Quorum.classic_size ~n:dcs);
           string_of_int (Mdcc_paxos.Quorum.fast_size ~n:dcs);
           string_of_int commits;
           Table.fms median;
         ])
       results);
  Printf.printf
    "  n=3 needs ALL replicas for a fast quorum (no fast-path slack); n=5 tolerates one slow/failed DC.\n";
  results

type 'a driver = ?quick:bool -> ?jobs:int -> obs:Obs.t -> unit -> 'a

type experiment = { id : string; doc : string; run : unit driver }

let experiment id doc f =
  { id; doc; run = (fun ?quick ?jobs ~obs () -> ignore (f ?quick ?jobs ~obs ())) }

let all =
  [
    experiment "fig3" "TPC-W write response-time CDF: QW-3/QW-4/MDCC/2PC/Megastore*" fig3;
    experiment "fig4" "TPC-W throughput scale-out: 50/100/200 clients" fig4;
    experiment "fig5" "micro-benchmark response-time CDF: MDCC/Fast/Multi/2PC" fig5;
    experiment "fig6" "commits/aborts vs. hot-spot size" fig6;
    experiment "fig7" "response-time boxplots vs. master locality" fig7;
    experiment "fig8" "latency time-series across a data-center outage" fig8;
    experiment "gamma" "ablation: sensitivity to the fast-policy window gamma" ablation_gamma;
    experiment "replication" "ablation: replication factor / quorum sizes" ablation_replication;
  ]

let demo ?trace ~on_decided () =
  let open Mdcc_storage in
  let module Cluster = Mdcc_core.Cluster in
  let module Engine = Mdcc_sim.Engine in
  let engine = Engine.create ~seed:1 in
  let config = Mdcc_core.Config.make ~mode:Mdcc_core.Config.Full ~replication:5 () in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default ~ctx:(Mdcc_core.Ctx.make ?trace ())
      ~config ~schema:Micro.schema ()
  in
  let stock n = Value.of_list [ ("stock", Value.Int n) ] in
  Cluster.load cluster [ (Micro.item_key 0, stock 10); (Micro.item_key 1, stock 10) ];
  Mdcc_core.Coordinator.submit
    (Cluster.coordinator cluster ~dc:2 ~rank:0)
    (Txn.make ~id:"demo"
       ~updates:
         [
           (Micro.item_key 0, Update.Delta [ ("stock", -2) ]);
           (Micro.item_key 1, Update.Physical { vread = 1; value = stock 7 });
         ])
    (fun outcome -> on_decided outcome (Engine.now engine));
  Engine.run ~until:10_000.0 engine
