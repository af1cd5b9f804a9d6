(** One-call construction of any benchmarked system configuration.

    Maps the protocol names of the evaluation section onto concrete
    deployments sharing the same topology, schema and initial data:
    MDCC / Fast / Multi are {!Mdcc_core} configurations (Fast runs the
    [Full] mode, where every update is treated as a physical,
    version-checked one because {!commutative} is false); QW-k, 2PC and
    Megastore* are {!Mdcc_protocols} baselines on the same
    {!Mdcc_core.Cluster.scaffold}, with unmetered traffic. *)

open Mdcc_storage

type protocol =
  | Mdcc  (** full protocol: fast ballots + commutative options *)
  | Fast  (** fast ballots, no commutative support *)
  | Multi  (** classic ballots with per-record masters *)
  | Qw of int  (** quorum writes with write quorum k *)
  | Two_pc
  | Megastore

val name : protocol -> string

val commutative : protocol -> bool
(** Should the workload use delta updates?  Only the full MDCC protocol and
    the QW baselines (which apply any update blindly) take deltas; Fast,
    Multi, 2PC and Megastore* get read-modify-write updates, as in the
    paper. *)

val make :
  protocol ->
  seed:int ->
  schema:Schema.t ->
  ?partitions:int ->
  ?app_servers_per_dc:int ->
  ?gamma:int ->
  ?master_dc_of:(Key.t -> int) ->
  ?obs:Mdcc_obs.Obs.t ->
  rows:(Key.t * Value.t) list ->
  unit ->
  Mdcc_protocols.Harness.t
(** Fresh engine + deployment, pre-loaded with [rows].  Megastore* forces a
    single partition (one entity group).  [obs] (MDCC-family protocols
    only) defaults to a fresh handle private to the deployment; experiment
    drivers running protocols in parallel pass a fresh handle per run and
    merge afterwards. *)
