(** Cluster assembly: the paper's deployment in one value.

    Builds the simulated deployment of Figure 1: [partitions] storage nodes
    per data center (hash-partitioned keyspace — each node holds [1/partitions]
    of the keys, and each data center holds one node of every partition),
    plus [app_servers_per_dc] stateless app-servers running the DB library
    (the {!Coordinator}).  A key's {e replica group} is its partition's
    storage node in every data center — [num_dcs] nodes, not the whole
    cluster; a transaction whose write-set hashes to several partitions
    simply runs its per-record Paxos instances against several groups and
    is still decided atomically by the coordinator (the learned-all rule of
    §3.2.1 never looks at group boundaries).  The record's master is the
    replica in [master_dc_of key] (uniformly hashed by default —
    experiments override it to control master locality, Figure 7).

    A deployment is described by a {!Spec.t} — build one with {!Spec.make},
    then hand it to {!create}. *)

open Mdcc_storage

type t

(** First-class deployment description: what used to be a tail of optional
    arguments on [create].  Values are validated on construction
    ([partitions >= 1], [app_servers_per_dc >= 1],
    [0 <= drop_probability <= 1]). *)
module Spec : sig
  type t = private {
    topology : Mdcc_sim.Topology.t option;
        (** storage topology; [None] = the paper's five EC2 regions with
            [partitions] storage nodes each *)
    partitions : int;  (** hash partitions of the keyspace per DC *)
    app_servers_per_dc : int;
    jitter_sigma : float;  (** lognormal latency jitter of the sim network *)
    drop_probability : float;  (** iid message-drop rate of the sim network *)
    master_dc_of : (Key.t -> int) option;
        (** master-locality policy; [None] = uniform hash *)
  }

  val make :
    ?topology:Mdcc_sim.Topology.t ->
    ?partitions:int ->
    ?app_servers_per_dc:int ->
    ?jitter_sigma:float ->
    ?drop_probability:float ->
    ?master_dc_of:(Key.t -> int) ->
    unit ->
    t
  (** Smart constructor; defaults: 1 partition, 1 app-server per DC,
      jitter 0.05, no drops, hashed masters, EC2-five topology. *)

  val default : t
  (** [make ()] — the paper's five-DC single-partition deployment. *)
end

(** Where everything lives in a deployment: the node-id layout, key
    routing and master placement, derived from a {!Spec.t} plus the number
    of data centers.  The simulated cluster, the baselines and the wire
    server all route through one of these, so they agree node for node. *)
module Layout : sig
  type t

  val make : Spec.t -> dcs:int -> t
  (** [spec.master_dc_of], when [None], becomes a uniform hash of the key
      (decorrelated from the partition hash). *)

  val num_dcs : t -> int
  val partitions : t -> int
  val app_servers_per_dc : t -> int

  val num_storage_nodes : t -> int
  (** Storage node ids are [0 .. num_storage_nodes - 1]. *)

  val storage_node : t -> dc:int -> int -> int
  (** [storage_node t ~dc p]: data center [dc]'s replica of partition [p],
      node id [dc * partitions + p]. *)

  val app_node : t -> dc:int -> rank:int -> int
  (** The [rank]-th app-server of [dc]; app-server ids follow the storage
      nodes, data center by data center. *)

  val dc_of : t -> int -> int
  (** Data center of a storage or app-server node id. *)

  val partition : t -> Key.t -> int
  (** [Key.hash key mod partitions]. *)

  val group : t -> int -> int list
  (** A partition's replica group: its storage node in every data center,
      in data-center order. *)

  val replicas : t -> Key.t -> int list
  (** The replica group of the key's partition.  Two keys share a group iff
      they hash to the same partition. *)

  val master_node : t -> Key.t -> int
  (** The key's master replica: the member of [replicas t key] in
      [master_dc_of key]'s data center. *)

  val local_node : t -> dc:int -> Key.t -> int
  (** The key's replica in [dc]. *)

  val local_nodes : t -> dc:int -> int list
  (** Every storage node of [dc], one per partition. *)

  val snapshot : t -> dc:int -> (int -> Store.t) -> Coordinator.snapshot_source
  (** The co-located read source of an app-server in [dc], over the
      committed store of each storage node id.  Its [snap_scan] fails
      with {!Mdcc_util.Invariant.Violation}: there are no range reads. *)
end

val scaffold : engine:Mdcc_sim.Engine.t -> spec:Spec.t -> Layout.t * Mdcc_sim.Network.t
(** The simulated network of [spec]'s deployment, unmetered, with no
    handler installed: the storage topology ([spec.topology], which must
    contain exactly [spec.partitions] nodes per data center, or the EC2
    five with [partitions] nodes each) plus [app_servers_per_dc] app-server
    nodes per data center.  {!create} builds MDCC on it; the baselines of
    [Mdcc_protocols] run on its {!Runtime.of_network}. *)

val create :
  engine:Mdcc_sim.Engine.t ->
  spec:Spec.t ->
  ?ctx:Ctx.t ->
  config:Config.t ->
  schema:Schema.t ->
  unit ->
  t
(** Builds the deployment [spec] describes on {!scaffold}.
    [config.replication] must equal the number of data centers.  [ctx]
    (default {!Ctx.make}[ ()], so a cluster built without one owns a
    private registry, {!obs}) is threaded into every coordinator and storage
    node: when its [history] is set they all record into it (chaos testing;
    see {!Mdcc_chaos.Runner}), its [trace] sink receives their trace lines
    (the cluster's one runtime is {!Runtime.of_network}[ ?trace]), and its
    [obs] is fed per-node message/byte counters through a network meter
    installed at create time.
    Every coordinator is wired a {!Layout.snapshot} over its DC's
    partition stores (the co-located reads). *)

val engine : t -> Mdcc_sim.Engine.t
val network : t -> Mdcc_sim.Network.t
val topology : t -> Mdcc_sim.Topology.t
val config : t -> Config.t
val num_dcs : t -> int

val layout : t -> Layout.t

val obs : t -> Mdcc_obs.Obs.t
(** The observability handle every component of this cluster reports to. *)

val stream : t -> Ctx.stream
(** The cluster's own event stream (node [-1]), for events from outside
    any node: injected faults and invariant violations. *)

val coordinator : t -> dc:int -> rank:int -> Coordinator.t
(** The [rank]-th app-server of a data center
    ([0 <= rank < app_servers_per_dc]). *)

val coordinators : t -> Coordinator.t list

val storage_nodes : t -> Storage_node.t list

val load : t -> (Key.t * Value.t) list -> unit
(** Install committed rows (version 1) on every replica — experiment
    setup. *)

val peek : t -> dc:int -> Key.t -> (Value.t * int) option
(** Direct inspection of the committed state at a data center's replica
    (bypasses the network; for tests and invariant checks). *)

val start_maintenance : t -> unit
(** Arm the dangling-transaction scan on every storage node. *)

val fail_dc : t -> int -> unit
(** Kill a data center (all messages to/from it are dropped). *)

val recover_dc : t -> int -> unit

val sync_dc : t -> int -> unit
(** Run the anti-entropy sweep on every storage node of a data center
    (typically right after {!recover_dc}). *)

val fail_node : t -> int -> unit
(** Crash a single node (all its traffic is dropped until restart). *)

val restart_node : t -> int -> unit
(** Restart-with-recovery entry point: bring a crashed node back (its
    committed store is durable and survives the crash) and immediately run
    the peer-directed anti-entropy sweep so it repairs any instance it
    missed while down.  App-server nodes are simply reconnected. *)

val sync_all : t -> unit
(** Peer-directed anti-entropy on every storage node — what a chaos run
    executes after healing all faults so replicas can reconverge. *)
