(** The nemesis: declarative, schedulable fault injection.

    A fault schedule is a list of [(time, fault)] pairs over the simulated
    clock.  Schedules can be written explicitly (scripted scenarios) or
    generated from a seeded RNG ({!random_faults}), so every chaos run —
    including its faults — is reproducible from a single seed.

    Faults cover the failure modes of the paper's evaluation and beyond:
    whole-data-center outages (§5.3.4's Figure 8 experiment), single-node
    crashes with restart-and-recover, {e directed} link cuts (asymmetric
    partitions a [fail_dc] cannot express), random message-drop spikes, and
    WAN latency surges. *)

open Mdcc_core

type fault =
  | Crash_node of int  (** fail one node; its store survives for restart *)
  | Restart_node of int  (** recover the node + peer anti-entropy sweep *)
  | Fail_dc of int  (** the paper's data-center outage *)
  | Recover_dc of int  (** recover the DC + master-directed anti-entropy *)
  | Cut_link of { src : int; dst : int }  (** cut the directed link *)
  | Heal_link of { src : int; dst : int }
  | Isolate_dc_inbound of int
      (** cut every link {e into} the DC: it can send but not receive — an
          asymmetric partition *)
  | Heal_dc_links of int  (** heal every cut link touching the DC *)
  | Drop_spike of float  (** set the network's drop probability *)
  | Latency_surge of float  (** set the network's latency factor *)
  | Heal_all  (** recover everything and restore base drop/latency *)

val label : fault -> string

val apply : Cluster.t -> fault -> unit
(** Execute the fault against the cluster's network immediately. *)

type schedule = (float * fault) list

val install : Cluster.t -> schedule -> unit
(** Schedule every fault on the cluster's engine.  Each fault is emitted as
    an {!Event.Fault} on the cluster's stream ({!Cluster.stream}) at
    injection time, so a history attached to the cluster records it. *)

val schedule_to_string : schedule -> string

(** A named schedule generator: given the run's RNG, cluster and fault
    horizon (faults are generated in [\[0, horizon\]]), produce a schedule.
    The same RNG state yields the same schedule.  [sc_partitions] is the
    minimum keyspace partition count the scenario is meaningful at (1 for
    the classic matrix; the shard scenarios demand a multi-partition
    cluster, and {!Runner} widens the deployment to at least this). *)
type scenario = {
  sc_name : string;
  sc_partitions : int;
  sc_build : rng:Mdcc_util.Rng.t -> cluster:Cluster.t -> horizon:float -> schedule;
}

val clean : scenario  (** no faults — the baseline *)

val dc_outage : scenario  (** fail a random DC mid-run, recover it later *)

val asymmetric_partition : scenario
(** isolate a random DC's inbound links for a window *)

val drop_spike : scenario  (** 15% random message loss for a window *)

val latency_surge : scenario  (** 6x WAN latency for a window *)

val master_failover : scenario
(** crash a random storage node (per-key master for ~1/5 of the keys) and
    restart it later — forces coordinator master-bypass rotation *)

val random_faults : scenario
(** 2–4 random fault/heal pairs drawn from all of the above *)

val torn_broadcast : scenario
(** Cut the app->remote-storage links between two random DCs in both
    pairings for a window.  Commits still reach a fast quorum, but the cut
    replica misses both the proposal and the visibility broadcast — on
    commutative delta keys this manufactures equal-version divergence
    (same version, different applied sets), the failure mode only the
    applied-set anti-entropy exchange repairs. *)

val torn_broadcast_crash : scenario
(** {!torn_broadcast} plus a mid-window crash/restart of one of the torn
    app servers, forcing dangling-transaction recovery on top of the
    divergence. *)

val partition_heal : scenario
(** Full bidirectional link cut between two random DCs for a window, then
    heal — the classic split-brain-and-reconcile shape. *)

val shard_partition : scenario
(** Cut one random app server off one random hash-partition's replica
    group (both directions) for a window: its cross-partition transactions
    have one write-set key unreachable while sibling keys in other groups
    learn immediately — the atomic-commit rule must hold the outcome until
    the wedged key resolves, without tearing the transaction. *)

val shard_outage : scenario
(** Crash one partition group's replicas in two distinct DCs for a window:
    that group falls below the fast quorum and commits via
    collision/classic recovery while every other group keeps the fast path
    — per-group quorum asymmetry inside single transactions. *)

val shard_flap : scenario
(** Crash/restart one replica of one partition group three times inside
    the window; every restart runs the peer anti-entropy sweep against its
    own group only. *)

val matrix : scenario list
(** The scenario matrix the chaos CLI sweeps: [clean; dc_outage;
    asymmetric_partition; drop_spike; latency_surge; master_failover;
    random_faults; torn_broadcast; torn_broadcast_crash; partition_heal;
    shard_partition; shard_outage; shard_flap]. *)

val scenario_named : string -> scenario option
