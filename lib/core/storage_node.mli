(** A storage node: Paxos acceptor, per-record master, and recovery agent.

    The paper maps Paxos roles onto the architecture as: clients are
    app-servers, proposers are masters, acceptors are storage nodes, and all
    nodes are learners (§3.1.1), with masters placed on storage nodes.  One
    [Storage_node.t] therefore plays three roles:

    {ol
    {- {b Acceptor} — votes on fast proposals (SetCompatible: version
       validation, one-outstanding-option, quorum demarcation), answers
       Phase1a/Phase2a, executes options on Visibility, and redirects fast
       proposers to the master while a record is inside its classic (γ)
       window;}
    {- {b Master} — for records whose mastership maps here: the stable
       classic path (Multi-Paxos, Phase 1 skipped) serializing physical
       options and pipelining commutative ones with escrow validation, and
       {e collision recovery}: Phase1a to all replicas, computing the safe
       decision for every pending option from the Fast Paxos intersection
       rule, re-proposing via classic Phase2a with a re-base of straggler
       replicas, and imposing [classic_until = version + γ];}
    {- {b Recovery agent} — a periodic scan detects pending options older
       than the transaction timeout (a dangling transaction whose app-server
       died, §3.2.3), reconstructs the write-set from the option itself,
       quorum-reads every key's status, forces undecided instances through
       the master, and issues the final Visibility on the dead coordinator's
       behalf.}} *)

open Mdcc_storage

type t

val create :
  runtime:Runtime.t ->
  config:Config.t ->
  node_id:int ->
  schema:Schema.t ->
  replicas:(Key.t -> int list) ->
  master_of:(Key.t -> int) ->
  ?ctx:Ctx.t ->
  unit ->
  t
(** Build the node and register its message handler on the runtime's
    transport — simulated network or real sockets, the state machine cannot
    tell ({!Runtime}).
    [replicas key] must list the full replica group of [key] (including this
    node when it replicates [key]); [master_of key] is the node currently
    responsible for classic ballots on [key].  [ctx] (default
    {!Ctx.make}[ ()]) bundles the cross-cutting dependencies: its [obs] receives
    acceptor/master counters — option verdicts with reject reasons, Phase 1
    rounds, recoveries, anti-entropy repairs and divergence; every protocol
    step — vote, visibility, repair, classic learn, recovery, divergence —
    is an {!Event.t} on the node's stream ({!Ctx.stream}), built only while
    [ctx.history], [ctx.obs]'s spans or the runtime's tracing consume it. *)

val node_id : t -> int

val store : t -> Store.t
(** The node's committed state (for local reads and test inspection). *)

val load : t -> (Key.t * Value.t) list -> unit
(** Bulk-load committed rows (version 1) — experiment setup, no protocol. *)

val pending_options : t -> int
(** Outstanding (undecided-visibility) options across all records. *)

val sync_with_masters : t -> unit
(** Anti-entropy sweep: probe the master of every key this node holds with
    the local (version, applied-set digest); newer committed state comes
    back via [Catchup], and equal-version digest mismatches trigger the
    [Sync_reply] applied-set exchange that replays missing committed deltas
    on both sides until the replicas hold the union.  The "background
    process" that brings a recovered data center up to date (§5.3.4). *)

val sync_with_peers : t -> unit
(** Like {!sync_with_masters}, but probe {e every} replica of every key this
    node holds.  A node restarting after a crash may be stale even on keys
    it masters (the other replicas kept committing while it was down), which
    the master-directed sweep cannot repair.  Part of the
    restart-with-recovery path ({!Cluster.restart_node}). *)

val start_maintenance : t -> unit
(** Arm the periodic dangling-transaction scan (call after setup; scans run
    every [config.dangling_scan_every] ms forever, through
    {!Runtime.every}, and not at all when that period is not [> 0]).  A
    node keeps a count of its records with a pending option, so a tick on
    a node with none returns at once: under {!Runtime.of_network} it
    allocates nothing.  Every node's tick keeps firing while it is idle, so
    ticks at one instant always fire in the order the nodes were started. *)
