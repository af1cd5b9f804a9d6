(** A protocol-independent handle on a running replicated store.

    The evaluation compares MDCC against quorum writes, two-phase commit and
    Megastore*; the workload generators and the experiment runner only see
    this record, so every protocol is driven by exactly the same client
    code. *)

open Mdcc_storage

type t = {
  name : string;
  engine : Mdcc_sim.Engine.t;
  num_dcs : int;
  submit : dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit;
      (** run the commit protocol from an app-server in [dc] *)
  read_local : dc:int -> Key.t -> ((Value.t * int) option -> unit) -> unit;
      (** read-committed read of the replica in [dc], co-located with the
          app-server: no message, the callback deferred *)
  peek : dc:int -> Key.t -> (Value.t * int) option;
      (** direct committed-state inspection (tests / invariant checks) *)
  load : (Key.t * Value.t) list -> unit;  (** pre-populate all replicas *)
  fail_dc : int -> unit;
  recover_dc : int -> unit;
}

val of_mdcc : Mdcc_core.Cluster.t -> name:string -> t
(** Wrap an MDCC cluster (any mode) in the common interface.  [submit]
    round-robins over the app-servers of the data center. *)

(** {1 Baseline deployments}

    Quorum writes, 2PC and Megastore* run on the same {!Mdcc_core.Runtime.t}
    and {!Mdcc_core.Cluster.Layout.t} as MDCC, so they run under the
    simulator and the socket runtime alike.  What they share is here: one
    committed store per storage node and the local read path, which is the
    same in every protocol of the paper and, as in MDCC, sends no message:
    the app-server reads its data center's store.  Each baseline module implements
    only its commit traffic. *)

type deployment

val deploy :
  runtime:Mdcc_core.Runtime.t -> layout:Mdcc_core.Cluster.Layout.t -> schema:Schema.t -> deployment
(** Empty stores for the layout's storage nodes.  Nothing is registered on
    the runtime until {!install}. *)

val runtime : deployment -> Mdcc_core.Runtime.t
val layout : deployment -> Mdcc_core.Cluster.Layout.t
val schema : deployment -> Schema.t

val store : deployment -> int -> Store.t
(** Committed store of a storage node id. *)

val app_node : deployment -> dc:int -> int
(** Round-robins over the data center's app-servers. *)

val install :
  deployment ->
  storage:(node:int -> src:int -> Mdcc_sim.Network.payload -> unit) ->
  app:(node:int -> src:int -> Mdcc_sim.Network.payload -> unit) ->
  unit
(** Register a baseline's handlers on every storage node and app-server. *)

val of_deployment :
  deployment ->
  name:string ->
  engine:Mdcc_sim.Engine.t ->
  fail_dc:(int -> unit) ->
  recover_dc:(int -> unit) ->
  (dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit) ->
  t
(** The common interface over a baseline's submit function: [read_local],
    [peek] and [load] act on the deployment's stores; [fail_dc] and
    [recover_dc] are the simulated network's. *)
