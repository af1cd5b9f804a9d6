open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

type t = {
  engine : Engine.t;
  net : Net.t;
  config : Config.t;
  topo : Topology.t;
  schema : Schema.t;
  partitions : int;
  app_per_dc : int;
  dcs : int;
  nodes : Storage_node.t array;  (* node id = dc * partitions + partition *)
  coords : Coordinator.t array;  (* app id = dcs*partitions + dc*app_per_dc + rank *)
  master_dc_of : Key.t -> int;
  obs : Obs.t;
}

let partition_of t key = Key.hash key mod t.partitions

let replicas_fn ~dcs ~partitions key =
  let p = Key.hash key mod partitions in
  List.init dcs (fun dc -> (dc * partitions) + p)

let default_master_dc ~dcs key =
  (* Decorrelated from the partition hash so masters spread evenly. *)
  Hashtbl.hash (Key.to_string key ^ "#master") mod dcs

module Spec = struct
  type t = {
    topology : Topology.t option;
    partitions : int;
    app_servers_per_dc : int;
    jitter_sigma : float;
    drop_probability : float;
    master_dc_of : (Key.t -> int) option;
  }

  let validate spec =
    if spec.partitions < 1 then
      Invariant.violate ~context:"Cluster.Spec" "partitions must be >= 1 (got %d)"
        spec.partitions;
    if spec.app_servers_per_dc < 1 then
      Invariant.violate ~context:"Cluster.Spec" "app_servers_per_dc must be >= 1 (got %d)"
        spec.app_servers_per_dc;
    if spec.drop_probability < 0.0 || spec.drop_probability > 1.0 then
      Invariant.violate ~context:"Cluster.Spec" "drop_probability must be in [0,1] (got %g)"
        spec.drop_probability;
    spec

  let make ?topology ?(partitions = 1) ?(app_servers_per_dc = 1) ?(jitter_sigma = 0.05)
      ?(drop_probability = 0.0) ?master_dc_of () =
    validate
      { topology; partitions; app_servers_per_dc; jitter_sigma; drop_probability;
        master_dc_of }

  let default = make ()

  let with_topology topo spec = validate { spec with topology = Some topo }
  let with_partitions partitions spec = validate { spec with partitions }

  let with_app_servers app_servers_per_dc spec =
    validate { spec with app_servers_per_dc }

  let with_jitter jitter_sigma spec = validate { spec with jitter_sigma }
  let with_drop_probability drop_probability spec = validate { spec with drop_probability }
  let with_master_dc_of f spec = { spec with master_dc_of = Some f }
  let partitions spec = spec.partitions
end

let create ~engine ~spec ?(ctx = Ctx.default ()) ~config ~schema () =
  let { Spec.topology; partitions; app_servers_per_dc; jitter_sigma; drop_probability;
        master_dc_of } =
    Spec.validate spec
  in
  let obs = ctx.Ctx.obs in
  let storage_topo =
    match topology with
    | Some topo -> topo
    | None -> Topology.ec2_five ~nodes_per_dc:partitions ()
  in
  let dcs = Topology.num_dcs storage_topo in
  if config.Config.replication <> dcs then
    Invariant.violate ~context:"Cluster.create"
      "config.replication (%d) must equal the number of data centers (%d)"
      config.Config.replication dcs;
  if Topology.num_nodes storage_topo <> dcs * partitions then
    Invariant.violate ~context:"Cluster.create"
      "topology must have exactly `partitions` (%d) nodes per DC" partitions;
  let topo = Topology.add_nodes storage_topo ~per_dc:app_servers_per_dc in
  let net = Net.create engine topo ~drop_probability ~jitter_sigma () in
  (* Per-node traffic instruments, charged at the network edge so every
     protocol message — including Batch folding — is counted once. *)
  let m_on_send, m_on_deliver = Obs.traffic_meter obs ~nodes:(Topology.num_nodes topo) in
  Net.set_meter net { Net.m_size = Messages.size_of; m_on_send; m_on_deliver };
  let master_dc_of =
    match master_dc_of with Some f -> f | None -> default_master_dc ~dcs
  in
  let replicas = replicas_fn ~dcs ~partitions in
  let master_of key =
    let p = Key.hash key mod partitions in
    (master_dc_of key * partitions) + p
  in
  let runtime = Runtime.of_network net in
  let nodes =
    Array.init (dcs * partitions) (fun node_id ->
        Storage_node.create ~runtime ~config ~node_id ~schema ~replicas ~master_of ~ctx ())
  in
  let base = dcs * partitions in
  (* Snapshot source of a data center: direct handles on its partition
     stores, for the coordinator's zero-message [`Snapshot] read level. *)
  let snapshot_for dc =
    {
      Coordinator.snap_read =
        (fun key ->
          let p = Key.hash key mod partitions in
          Store.read (Storage_node.store nodes.((dc * partitions) + p)) key);
      snap_scan =
        (fun ~table ->
          let rows = ref [] in
          for p = partitions - 1 downto 0 do
            Store.iter
              (Storage_node.store nodes.((dc * partitions) + p))
              (fun key row ->
                if row.Store.exists && String.equal key.Key.table table then
                  rows := (key, row.Store.value, row.Store.version) :: !rows)
          done;
          !rows);
    }
  in
  let coords =
    Array.init (dcs * app_servers_per_dc) (fun i ->
        let dc = i / app_servers_per_dc in
        let local_nodes = List.init partitions (fun p -> (dc * partitions) + p) in
        Coordinator.create ~runtime ~config ~node_id:(base + i) ~replicas ~master_of
          ~snapshot:(snapshot_for dc) ~ctx:(Ctx.with_local_nodes ctx local_nodes) ())
  in
  { engine; net; config; topo; schema; partitions; app_per_dc = app_servers_per_dc; dcs;
    nodes; coords; master_dc_of; obs }

let engine t = t.engine

let network t = t.net

let topology t = t.topo

let config t = t.config

let num_dcs t = t.dcs

let num_partitions t = t.partitions

let obs t = t.obs

let coordinator t ~dc ~rank =
  if dc < 0 || dc >= t.dcs || rank < 0 || rank >= t.app_per_dc then
    Invariant.violate ~context:"Cluster.coordinator" "dc %d / rank %d out of range" dc rank;
  t.coords.((dc * t.app_per_dc) + rank)

let coordinators t = Array.to_list t.coords

let storage_nodes t = Array.to_list t.nodes

let replicas t key = replicas_fn ~dcs:t.dcs ~partitions:t.partitions key

let master_node t key = (t.master_dc_of key * t.partitions) + partition_of t key

let load t rows =
  (* Group rows by partition and load each replica of that partition. *)
  List.iter
    (fun (key, value) ->
      List.iter (fun node -> Storage_node.load t.nodes.(node) [ (key, value) ]) (replicas t key))
    rows

let peek t ~dc key =
  let node = (dc * t.partitions) + partition_of t key in
  Store.read (Storage_node.store t.nodes.(node)) key

let start_maintenance t = Array.iter Storage_node.start_maintenance t.nodes

let fail_dc t dc = Net.fail_dc t.net dc

let recover_dc t dc = Net.recover_dc t.net dc

let sync_dc t dc =
  for p = 0 to t.partitions - 1 do
    Storage_node.sync_with_masters t.nodes.((dc * t.partitions) + p)
  done

let fail_node t node = Net.fail_node t.net node

let restart_node t node =
  Net.recover_node t.net node;
  (* A restarting storage node immediately runs the peer-directed
     anti-entropy sweep: its committed store survived the crash (durable
     storage), but it may have missed whole instances while down. *)
  if node < Array.length t.nodes then Storage_node.sync_with_peers t.nodes.(node)

let sync_all t = Array.iter Storage_node.sync_with_peers t.nodes
