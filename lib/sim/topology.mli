(** Deployment topology: data centers, nodes, and base WAN latencies.

    The paper's testbed is five Amazon EC2 regions — US West (N. California),
    US East (Virginia), EU (Ireland), AP (Singapore) and AP (Tokyo) — with a
    full replica per region and the data range-partitioned across several
    storage nodes inside each region.  {!ec2_five} reconstructs that
    deployment with the inter-region round-trip times measured around 2012.

    Node ids are dense integers [0 .. num_nodes-1]; the mapping to data
    centers is fixed at construction. *)

type node_id = int

type t = {
  dc_names : string array;  (** one entry per data center *)
  node_dc : int array;  (** node id -> data center index *)
  rtt : float array array;  (** inter-DC round-trip time in ms *)
  intra_rtt : float;  (** round-trip time between nodes of one DC *)
}

val make :
  dc_names:string array ->
  rtt:float array array ->
  ?intra_rtt:float ->
  nodes_per_dc:int ->
  unit ->
  t
(** Build a topology with [nodes_per_dc] nodes in every data center.  Node
    ids are laid out DC-major: node [d * nodes_per_dc + i] is the [i]-th node
    of DC [d].  Raises [Invalid_argument] if [rtt] is not square or does not
    match [dc_names]. *)

val ec2_five : ?nodes_per_dc:int -> unit -> t
(** The paper's 5-region EC2 deployment (default 1 node per DC). *)

val us_west : int
(** Index of the US West data center in {!ec2_five} (clients' default home,
    and the Megastore* master region in the paper's comparison). *)

val us_east : int
(** Index of US East — the region killed in the Figure 8 experiment. *)

val num_dcs : t -> int
val num_nodes : t -> int
val dc_of : t -> node_id -> int
val nodes_in_dc : t -> int -> node_id list
val all_nodes : t -> node_id list

val one_way : t -> node_id -> node_id -> float
(** Base one-way latency between two nodes (half the RTT; 0 for a node to
    itself). *)

val dc_one_way : t -> int -> int -> float
(** Base one-way latency between two distinct nodes in data centers [da]
    and [db] (half the intra-DC RTT when [da = db]). *)

val add_nodes : t -> per_dc:int -> t
(** A copy of the topology with [per_dc] extra nodes appended to every data
    center (their ids follow the existing ones).  Used to add app-server /
    client nodes next to the storage nodes. *)
