(** A storage node: it drives its Paxos acceptor, and plays per-record
    master and recovery agent.

    The paper maps Paxos roles onto the architecture as: clients are
    app-servers, proposers are masters, acceptors are storage nodes, and all
    nodes are learners (§3.1.1), with masters placed on storage nodes.  One
    [Storage_node.t] therefore plays three roles:

    {ol
    {- {b Acceptor} — the node's {!Acceptor.node}, stepped once per
       input: a fast proposal (SetCompatible: version validation,
       one-outstanding-option, quorum demarcation, or a redirect to the
       master while a record is inside its classic (γ) window), Phase1a,
       Phase2a, Visibility and a status query.  The node finds the record,
       fills the clock stamp a vote records, steps the acceptor, and then
       sends, counts and emits from its verdict.  A Phase1a or Phase2a
       from the node's own master is answered by a direct call, not a
       message;}
    {- {b Master} — one {!Leader} per record the node masters or
       recovers, stepped once per input: a classic proposal, a Phase2b, a
       Phase1b and the two Phase 1 timers.  The leader runs the stable
       classic path (Multi-Paxos, Phase 1 skipped), serializing physical
       options and pipelining commutative ones with escrow validation, and
       {e collision recovery}: Phase1a to all replicas, re-driven on
       silence or a nack, then one {!Acceptor.resolve} step over a classic
       quorum's promises, which computes the safe decision for every
       pending option from the Fast Paxos intersection rule and imposes
       [classic_until = version + γ] on the master's own record.  From the
       leader's verdicts the node sends the Phase1a's and Phase2a's (the
       latter through {!Epoch}), announces what is already decided, draws
       the timers' jitter, arms them, counts and emits;}
    {- {b Recovery agent} — a periodic scan detects pending options older
       than the transaction timeout (a dangling transaction whose app-server
       died, §3.2.3), reconstructs the write-set from the option itself,
       quorum-reads every key's status, forces undecided instances through
       the master, and issues the final Visibility on the dead coordinator's
       behalf.  The decision is a {!Txn_decision}, stepped with each status
       reply and learn, as the coordinator steps its own.}}

    The leaders, the recovery agent and anti-entropy read and change the
    acceptor's state only through {!Acceptor}'s queries and steps.

    Each delivered message, each Phase 1 timer and each dangling scan is
    one {!Outbox} step: what it sends leaves when it returns, one message
    per destination.  So a Phase 1 resolution's announcements and
    re-proposals, a learned round with the queued options it starts, or
    a recovery's status queries cost each replica one [Batch].  Nothing
    is held past the step, so nothing leaves later than unfolded. *)

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

val recovering : t -> int
(** Dangling transactions this node is recovering: started and not yet
    decided or forgotten (diagnostics). *)

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
