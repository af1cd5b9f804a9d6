open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Topology = Mdcc_sim.Topology
module Invariant = Mdcc_util.Invariant
module Obs = Mdcc_obs.Obs

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
end

module Layout = struct
  type t = {
    dcs : int;
    partitions : int;
    app_per_dc : int;
    master_dc_of : Key.t -> int;
    groups : int list array;  (* per partition, built once: [replicas] runs per message *)
  }

  (* The one formula of the storage-node layout: partition [p]'s node in
     data center [dc]. *)
  let node_of ~partitions ~dc p = (dc * partitions) + p

  let make spec ~dcs =
    let master_dc_of =
      match spec.Spec.master_dc_of with
      | Some f -> f
      | None ->
        (* Decorrelated from the partition hash so masters spread evenly. *)
        fun key -> Hashtbl.hash (Key.to_string key ^ "#master") mod dcs
    in
    let partitions = spec.Spec.partitions in
    { dcs; partitions; app_per_dc = spec.Spec.app_servers_per_dc; master_dc_of;
      groups =
        Array.init partitions (fun p -> List.init dcs (fun dc -> node_of ~partitions ~dc p)) }

  let num_dcs t = t.dcs
  let partitions t = t.partitions
  let app_servers_per_dc t = t.app_per_dc
  let num_storage_nodes t = t.dcs * t.partitions
  let storage_node t ~dc p = node_of ~partitions:t.partitions ~dc p
  let app_node t ~dc ~rank = num_storage_nodes t + (dc * t.app_per_dc) + rank

  let dc_of t node =
    let base = num_storage_nodes t in
    if node < base then node / t.partitions else (node - base) / t.app_per_dc

  let partition t key = Key.hash key mod t.partitions
  let group t p = t.groups.(p)
  let replicas t key = group t (partition t key)
  let master_node t key = storage_node t ~dc:(t.master_dc_of key) (partition t key)
  let local_node t ~dc key = storage_node t ~dc (partition t key)
  let local_nodes t ~dc = List.init t.partitions (storage_node t ~dc)

  let snapshot t ~dc store =
    {
      Coordinator.snap_read = (fun key -> Store.read (store (local_node t ~dc key)) key);
      snap_scan =
        (fun ~table ->
          let rows = ref [] in
          for p = t.partitions - 1 downto 0 do
            Store.iter (store (storage_node t ~dc p)) (fun key row ->
                if row.Store.exists && String.equal key.Key.table table then
                  rows := (key, row.Store.value, row.Store.version) :: !rows)
          done;
          !rows);
    }
end

let scaffold ~engine ~spec =
  let storage_topo =
    match spec.Spec.topology with
    | Some topo -> topo
    | None -> Topology.ec2_five ~nodes_per_dc:spec.Spec.partitions ()
  in
  let layout = Layout.make spec ~dcs:(Topology.num_dcs storage_topo) in
  if Topology.num_nodes storage_topo <> Layout.num_storage_nodes layout then
    Invariant.violate ~context:"Cluster.scaffold"
      "topology must have exactly `partitions` (%d) nodes per DC" spec.Spec.partitions;
  let topo = Topology.add_nodes storage_topo ~per_dc:spec.Spec.app_servers_per_dc in
  let net =
    Net.create engine topo ~drop_probability:spec.Spec.drop_probability
      ~jitter_sigma:spec.Spec.jitter_sigma ()
  in
  (layout, net)

type t = {
  engine : Engine.t;
  net : Net.t;
  config : Config.t;
  layout : Layout.t;
  nodes : Storage_node.t array;  (* indexed by node id *)
  coords : Coordinator.t array;  (* indexed by dc * app_servers_per_dc + rank *)
  obs : Obs.t;
  stream : Ctx.stream;  (* events from outside any node: faults, violations *)
}

let create ~engine ~spec ?(ctx = Ctx.make ()) ~config ~schema () =
  let obs = ctx.Ctx.obs in
  let layout, net = scaffold ~engine ~spec in
  let dcs = Layout.num_dcs layout and app_per_dc = Layout.app_servers_per_dc layout in
  if config.Config.replication <> dcs then
    Invariant.violate ~context:"Cluster.create"
      "config.replication (%d) must equal the number of data centers (%d)"
      config.Config.replication dcs;
  (* Per-node traffic instruments, charged at the network edge so every
     protocol message — including Batch folding — is counted once. *)
  let m_on_send, m_on_deliver =
    Obs.traffic_meter obs ~nodes:(Topology.num_nodes (Net.topology net))
  in
  Net.set_meter net { Net.m_size = Messages.size_of; m_on_send; m_on_deliver };
  let replicas = Layout.replicas layout and master_of = Layout.master_node layout in
  let runtime = Runtime.of_network ?trace:ctx.Ctx.trace net in
  let nodes =
    Array.init (Layout.num_storage_nodes layout) (fun node_id ->
        Storage_node.create ~runtime ~config ~node_id ~schema ~replicas ~master_of ~ctx ())
  in
  let store node = Storage_node.store nodes.(node) in
  let coords =
    Array.init (dcs * app_per_dc) (fun i ->
        let dc = i / app_per_dc in
        Coordinator.create ~runtime ~config
          ~node_id:(Layout.app_node layout ~dc ~rank:(i mod app_per_dc))
          ~replicas ~master_of ~snapshot:(Layout.snapshot layout ~dc store)
          ~ctx:(Ctx.with_local_nodes ctx (Layout.local_nodes layout ~dc)) ())
  in
  { engine; net; config; layout; nodes; coords; obs; stream = Ctx.stream ctx runtime ~node:(-1) }

let engine t = t.engine

let network t = t.net

let topology t = Net.topology t.net

let config t = t.config

let layout t = t.layout

let num_dcs t = Layout.num_dcs t.layout

let obs t = t.obs

let stream t = t.stream

let coordinator t ~dc ~rank =
  let per_dc = Layout.app_servers_per_dc t.layout in
  if dc < 0 || dc >= num_dcs t || rank < 0 || rank >= per_dc then
    Invariant.violate ~context:"Cluster.coordinator" "dc %d / rank %d out of range" dc rank;
  t.coords.((dc * per_dc) + rank)

let coordinators t = Array.to_list t.coords

let storage_nodes t = Array.to_list t.nodes

let load t rows =
  List.iter
    (fun (key, value) ->
      List.iter
        (fun node -> Storage_node.load t.nodes.(node) [ (key, value) ])
        (Layout.replicas t.layout key))
    rows

let peek t ~dc key =
  Store.read (Storage_node.store t.nodes.(Layout.local_node t.layout ~dc key)) key

let start_maintenance t = Array.iter Storage_node.start_maintenance t.nodes

let fail_dc t dc = Net.fail_dc t.net dc

let recover_dc t dc = Net.recover_dc t.net dc

let sync_dc t dc =
  List.iter
    (fun node -> Storage_node.sync_with_masters t.nodes.(node))
    (Layout.local_nodes t.layout ~dc)

let fail_node t node = Net.fail_node t.net node

let restart_node t node =
  Net.recover_node t.net node;
  (* A restarting storage node immediately runs the peer-directed
     anti-entropy sweep: its committed store survived the crash (durable
     storage), but it may have missed whole instances while down. *)
  if node < Array.length t.nodes then Storage_node.sync_with_peers t.nodes.(node)

let sync_all t = Array.iter Storage_node.sync_with_peers t.nodes
