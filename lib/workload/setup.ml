module Engine = Mdcc_sim.Engine
module Net = Mdcc_sim.Network
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Runtime = Mdcc_core.Runtime
module Harness = Mdcc_protocols.Harness
module Quorum_writes = Mdcc_protocols.Quorum_writes
module Two_phase_commit = Mdcc_protocols.Two_phase_commit
module Megastore = Mdcc_protocols.Megastore

type protocol = Mdcc | Fast | Multi | Qw of int | Two_pc | Megastore

let name = function
  | Mdcc -> "MDCC"
  | Fast -> "Fast"
  | Multi -> "Multi"
  | Qw k -> Printf.sprintf "QW-%d" k
  | Two_pc -> "2PC"
  | Megastore -> "Megastore*"

let commutative = function
  | Mdcc | Qw _ -> true
  | Fast | Multi | Two_pc | Megastore -> false

let make protocol ~seed ~schema ?(partitions = 1) ?(app_servers_per_dc = 1) ?(gamma = 100)
    ?master_dc_of ?obs ~rows () =
  let engine = Engine.create ~seed in
  (* The baselines run unmetered on MDCC's scaffold; of the deployment
     options they take only [partitions] and [app_servers_per_dc]. *)
  let baseline ?(partitions = partitions) install =
    let spec = Cluster.Spec.make ~partitions ~app_servers_per_dc () in
    let layout, net = Cluster.scaffold ~engine ~spec in
    let d = Harness.deploy ~runtime:(Runtime.of_network net) ~layout ~schema in
    let harness =
      Harness.of_deployment d ~name:(name protocol) ~engine ~fail_dc:(Net.fail_dc net)
        ~recover_dc:(Net.recover_dc net) (install d)
    in
    harness.Harness.load rows;
    harness
  in
  match protocol with
  | Mdcc | Fast | Multi ->
    let mode =
      match protocol with
      | Mdcc | Fast -> Config.Full
      | Multi | Qw _ | Two_pc | Megastore -> Config.Multi
    in
    let config = Config.make ~mode ~gamma ~replication:5 () in
    let spec = Cluster.Spec.make ~partitions ~app_servers_per_dc ?master_dc_of () in
    let cluster =
      Cluster.create ~engine ~spec ~config ~schema ~ctx:(Mdcc_core.Ctx.make ?obs ()) ()
    in
    Cluster.load cluster rows;
    Cluster.start_maintenance cluster;
    Harness.of_mdcc cluster ~name:(name protocol)
  | Qw w -> baseline (fun d -> Quorum_writes.submit (Quorum_writes.create d ~w))
  | Two_pc -> baseline (fun d -> Two_phase_commit.submit (Two_phase_commit.create d))
  | Megastore ->
    (* One entity group: a single partition regardless of the request. *)
    baseline ~partitions:1 (fun d -> Megastore.submit (Megastore.create d))
