open Mdcc_core
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Rng = Mdcc_util.Rng
module Layout = Cluster.Layout

type fault =
  | Crash_node of int
  | Restart_node of int
  | Fail_dc of int
  | Recover_dc of int
  | Cut_link of { src : int; dst : int }
  | Heal_link of { src : int; dst : int }
  | Isolate_dc_inbound of int
  | Heal_dc_links of int
  | Drop_spike of float
  | Latency_surge of float
  | Heal_all

let label = function
  | Crash_node n -> Printf.sprintf "crash node%d" n
  | Restart_node n -> Printf.sprintf "restart node%d" n
  | Fail_dc dc -> Printf.sprintf "fail dc%d" dc
  | Recover_dc dc -> Printf.sprintf "recover dc%d" dc
  | Cut_link { src; dst } -> Printf.sprintf "cut link %d->%d" src dst
  | Heal_link { src; dst } -> Printf.sprintf "heal link %d->%d" src dst
  | Isolate_dc_inbound dc -> Printf.sprintf "isolate dc%d inbound" dc
  | Heal_dc_links dc -> Printf.sprintf "heal dc%d links" dc
  | Drop_spike p -> Printf.sprintf "drop probability %.2f" p
  | Latency_surge f -> Printf.sprintf "latency x%.1f" f
  | Heal_all -> "heal all"

let apply cluster fault =
  let net = Cluster.network cluster in
  let topo = Cluster.topology cluster in
  match fault with
  | Crash_node n -> Cluster.fail_node cluster n
  | Restart_node n -> Cluster.restart_node cluster n
  | Fail_dc dc -> Cluster.fail_dc cluster dc
  | Recover_dc dc ->
    Cluster.recover_dc cluster dc;
    Cluster.sync_dc cluster dc
  | Cut_link { src; dst } -> Net.cut_link net ~src ~dst
  | Heal_link { src; dst } -> Net.heal_link net ~src ~dst
  | Isolate_dc_inbound dc ->
    List.iter
      (fun dst ->
        List.iter
          (fun src -> if Topology.dc_of topo src <> dc then Net.cut_link net ~src ~dst)
          (Topology.all_nodes topo))
      (Topology.nodes_in_dc topo dc)
  | Heal_dc_links dc ->
    List.iter
      (fun inside ->
        List.iter
          (fun other ->
            Net.heal_link net ~src:other ~dst:inside;
            Net.heal_link net ~src:inside ~dst:other)
          (Topology.all_nodes topo))
      (Topology.nodes_in_dc topo dc)
  | Drop_spike p -> Net.set_drop_probability net p
  | Latency_surge f -> Net.set_latency_factor net f
  | Heal_all -> Net.heal_all net

type schedule = (float * fault) list

let install cluster schedule =
  let engine = Cluster.engine cluster and stream = Cluster.stream cluster in
  List.iter
    (fun (time, fault) ->
      ignore
        (Engine.schedule_at engine ~at:time (fun () ->
             if Ctx.live stream then Ctx.emit stream (Event.Fault (label fault));
             apply cluster fault)))
    schedule

let schedule_to_string schedule =
  match schedule with
  | [] -> "  (no faults)"
  | _ ->
    String.concat "\n"
      (List.map (fun (time, fault) -> Printf.sprintf "  %8.1f  %s" time (label fault)) schedule)

type scenario = {
  sc_name : string;
  sc_partitions : int;
  sc_build : rng:Rng.t -> cluster:Cluster.t -> horizon:float -> schedule;
}

(* A fault window inside [0, horizon]: start in the first part of the run,
   end before the horizon so the heal phase gets exercised too. *)
let window rng ~horizon =
  let start = (0.1 +. Rng.float rng 0.3) *. horizon in
  let stop = start +. ((0.2 +. Rng.float rng 0.3) *. horizon) in
  (start, Float.min stop (0.95 *. horizon))

(* Cut every [(src, dst)] link at [start] and heal it at [stop]: all the
   cuts, then all the heals, each in [links] order. *)
let cut_links ~start ~stop links =
  List.map (fun (src, dst) -> (start, Cut_link { src; dst })) links
  @ List.map (fun (src, dst) -> (stop, Heal_link { src; dst })) links

let storage_node_ids cluster =
  List.map Storage_node.node_id (Cluster.storage_nodes cluster)

let clean =
  { sc_name = "clean"; sc_partitions = 1;
    sc_build = (fun ~rng:_ ~cluster:_ ~horizon:_ -> []) }

let dc_outage =
  {
    sc_name = "dc_outage";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let dc = Rng.int rng (Cluster.num_dcs cluster) in
        let start, stop = window rng ~horizon in
        [ (start, Fail_dc dc); (stop, Recover_dc dc) ]);
  }

let asymmetric_partition =
  {
    sc_name = "asymmetric_partition";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let dc = Rng.int rng (Cluster.num_dcs cluster) in
        let start, stop = window rng ~horizon in
        [ (start, Isolate_dc_inbound dc); (stop, Heal_dc_links dc) ]);
  }

let drop_spike =
  {
    sc_name = "drop_spike";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let base = Net.base_drop_probability (Cluster.network cluster) in
        let start, stop = window rng ~horizon in
        [ (start, Drop_spike 0.15); (stop, Drop_spike base) ]);
  }

let latency_surge =
  {
    sc_name = "latency_surge";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster:_ ~horizon ->
        let start, stop = window rng ~horizon in
        [ (start, Latency_surge 6.0); (stop, Latency_surge 1.0) ]);
  }

let master_failover =
  {
    sc_name = "master_failover";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let nodes = Array.of_list (storage_node_ids cluster) in
        let victim = Rng.pick rng nodes in
        let start, stop = window rng ~horizon in
        [ (start, Crash_node victim); (stop, Restart_node victim) ]);
  }

let random_faults =
  {
    sc_name = "random";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let dcs = Cluster.num_dcs cluster in
        let nodes = Array.of_list (storage_node_ids cluster) in
        let base = Net.base_drop_probability (Cluster.network cluster) in
        let pair () =
          let start, stop = window rng ~horizon in
          match Rng.int rng 6 with
          | 0 ->
            let dc = Rng.int rng dcs in
            [ (start, Fail_dc dc); (stop, Recover_dc dc) ]
          | 1 ->
            let dc = Rng.int rng dcs in
            [ (start, Isolate_dc_inbound dc); (stop, Heal_dc_links dc) ]
          | 2 ->
            let v = Rng.pick rng nodes in
            [ (start, Crash_node v); (stop, Restart_node v) ]
          | 3 ->
            [ (start, Drop_spike (0.05 +. Rng.float rng 0.15)); (stop, Drop_spike base) ]
          | 4 -> [ (start, Latency_surge (2.0 +. Rng.float rng 6.0)); (stop, Latency_surge 1.0) ]
          | _ ->
            let src = Rng.pick rng nodes and dst = Rng.pick rng nodes in
            [ (start, Cut_link { src; dst }); (stop, Heal_link { src; dst }) ]
        in
        let k = 2 + Rng.int rng 3 in
        List.concat (List.init k (fun _ -> pair ()))
        |> List.sort (fun (a, _) (b, _) -> Float.compare a b));
  }

(* --- divergence-provoking scenarios ---------------------------------- *)

(* Tearing a coordinator's visibility broadcast needs node ids on both
   sides: the rank-0 app server of a DC (chaos clients submit through
   rank 0) and the storage nodes of a remote DC. *)
let app_node cluster dc = Coordinator.node_id (Cluster.coordinator cluster ~dc ~rank:0)

let storage_in_dc cluster dc =
  let topo = Cluster.topology cluster in
  List.filter (fun n -> Topology.dc_of topo n = dc) (storage_node_ids cluster)

let two_distinct_dcs rng cluster =
  let dcs = Cluster.num_dcs cluster in
  let d1 = Rng.int rng dcs in
  (d1, (d1 + 1 + Rng.int rng (dcs - 1)) mod dcs)

(* Cut app(d1)->storage(d2) and app(d2)->storage(d1) for the window.
   Commits still reach a fast quorum (4 of 5 with the torn replica cut
   off), but that replica hears neither the proposal nor the visibility
   broadcast.  On commutative delta keys this manufactures equal-version
   divergence — same version, different applied sets — which version
   catch-up cannot see and only the applied-set exchange repairs. *)
let torn_broadcast_schedule ~start ~stop cluster (d1, d2) =
  cut_links ~start ~stop
    (List.concat_map
       (fun (app_dc, dst_dc) ->
         let a = app_node cluster app_dc in
         List.map (fun n -> (a, n)) (storage_in_dc cluster dst_dc))
       [ (d1, d2); (d2, d1) ])

let torn_broadcast =
  {
    sc_name = "torn_broadcast";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let pair = two_distinct_dcs rng cluster in
        let start, stop = window rng ~horizon in
        torn_broadcast_schedule ~start ~stop cluster pair);
  }

let torn_broadcast_crash =
  {
    sc_name = "torn_broadcast_crash";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let (d1, _) as pair = two_distinct_dcs rng cluster in
        let start, stop = window rng ~horizon in
        let sched = torn_broadcast_schedule ~start ~stop cluster pair in
        (* Mid-window app-server crash: d1's in-flight transactions lose
           their coordinator and must finish via dangling recovery, on top
           of the torn visibility. *)
        let mid = start +. ((stop -. start) /. 2.0) in
        let a = app_node cluster d1 in
        sched @ [ (mid, Crash_node a); (stop, Restart_node a) ]);
  }

let partition_heal =
  {
    sc_name = "partition_heal";
    sc_partitions = 1;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let d1, d2 = two_distinct_dcs rng cluster in
        let topo = Cluster.topology cluster in
        let n1 = Topology.nodes_in_dc topo d1 and n2 = Topology.nodes_in_dc topo d2 in
        let start, stop = window rng ~horizon in
        cut_links ~start ~stop
          (List.concat_map (fun a -> List.concat_map (fun b -> [ (a, b); (b, a) ]) n2) n1));
  }

(* --- shard-scoped scenarios ------------------------------------------ *)

(* Partitions cut *between* shards, not between whole data centers: one
   hash-partition's replica group degrades while every other group keeps
   its fast path — exactly the asymmetry a cross-partition transaction has
   to commit (or abort) atomically across.  All three demand a
   multi-partition cluster ([sc_partitions] = 4); the runner widens the
   deployment accordingly. *)

let shard_replica cluster ~dc ~p = Layout.storage_node (Cluster.layout cluster) ~dc p

let num_partitions cluster = Layout.partitions (Cluster.layout cluster)

(* Cut one random app server off one random partition group, both
   directions.  Its cross-partition transactions have one write-set key
   wedged (no proposal can reach the group) while sibling keys in other
   groups learn immediately — the decision must wait, and recovery for the
   wedged key must not tear the transaction. *)
let shard_partition =
  {
    sc_name = "shard_partition";
    sc_partitions = 4;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let p = Rng.int rng (num_partitions cluster) in
        let dc = Rng.int rng (Cluster.num_dcs cluster) in
        let a = app_node cluster dc in
        let start, stop = window rng ~horizon in
        cut_links ~start ~stop
          (List.concat_map (fun n -> [ (a, n); (n, a) ]) (Layout.group (Cluster.layout cluster) p)));
  }

(* Crash one partition group's replicas in two distinct DCs: that group
   drops below the fast quorum (3 of 5 live) and must commit through
   collisions/classic recovery, while every other group still has all 5 —
   per-group quorum asymmetry under one transaction. *)
let shard_outage =
  {
    sc_name = "shard_outage";
    sc_partitions = 4;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let p = Rng.int rng (num_partitions cluster) in
        let d1, d2 = two_distinct_dcs rng cluster in
        let start, stop = window rng ~horizon in
        [
          (start, Crash_node (shard_replica cluster ~dc:d1 ~p));
          (start, Crash_node (shard_replica cluster ~dc:d2 ~p));
          (stop, Restart_node (shard_replica cluster ~dc:d1 ~p));
          (stop, Restart_node (shard_replica cluster ~dc:d2 ~p));
        ]);
  }

(* Flap a single replica of one partition group: crash/restart it three
   times inside the window.  Each restart runs the peer-directed
   anti-entropy sweep against its own group only — repair must stay
   shard-scoped and still converge. *)
let shard_flap =
  {
    sc_name = "shard_flap";
    sc_partitions = 4;
    sc_build =
      (fun ~rng ~cluster ~horizon ->
        let p = Rng.int rng (num_partitions cluster) in
        let dc = Rng.int rng (Cluster.num_dcs cluster) in
        let victim = shard_replica cluster ~dc ~p in
        let start, stop = window rng ~horizon in
        let flaps = 3 in
        let slot = (stop -. start) /. float_of_int (2 * flaps) in
        List.concat
          (List.init flaps (fun i ->
               let down = start +. (float_of_int (2 * i) *. slot) in
               let up = down +. slot in
               [ (down, Crash_node victim); (up, Restart_node victim) ])));
  }

let matrix =
  [ clean; dc_outage; asymmetric_partition; drop_spike; latency_surge; master_failover;
    random_faults; torn_broadcast; torn_broadcast_crash; partition_heal; shard_partition;
    shard_outage; shard_flap ]

let scenario_named name = List.find_opt (fun s -> String.equal s.sc_name name) matrix
