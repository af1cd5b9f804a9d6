(** The app-server side of MDCC: the stateless DB library / transaction
    manager.

    A coordinator proposes options for every update of a transaction, learns
    them, and — crucially — is {e not allowed to abort} a transaction it has
    proposed: the outcome is a deterministic function of the learned options
    (all accepted → commit; any rejected → abort), which is what makes the
    single-round-trip commit safe (§3.2.1).  After deciding it sends
    asynchronous Visibility messages to execute or void the options, at
    the end of the decision's virtual instant.

    Each message delivered to the coordinator is one {!Outbox} step that
    lasts to the end of its virtual instant: what the delivery queued
    leaves from a spawned thunk, after the callbacks the delivery spawned
    (a client's co-located reads).  A {!submit} or {!read} made before
    then joins it, so a closed-loop client's next proposals share one
    message per replica with the Visibilities just decided, which come
    first in it.  Nothing waits: every message leaves at the instant it
    would have left unheld.

    Routing implements the fast-policy from the client side: fast
    (master-bypassing) proposals by default, classic proposals through the
    record's master in Multi mode or while the version known for the
    record is below its classic window.  The known version is the
    option's [vread], or the co-located row's version for an insert or a
    delta; a record whose version is unknown routes fast.  The window is
    the furthest [classic_until] a [Redirect] reported, or, after a
    collision or timeout recovery, the known version + γ; it is dropped
    once the known version reaches it.
    Collisions (no fast quorum possible for either outcome) and learn
    timeouts escalate to [Start_recovery] at the master, which hands it
    on to whoever leads the record.  Only a master this coordinator has
    heard nothing from for 2 × [learn_timeout] is bypassed: repeated
    timeouts then rotate through the replicas.  Each delivery counts
    one for its source; the clock is read only to escalate.  One
    timeout's escalations are one {!Outbox} step: keys that share a
    target cost one message.

    The learned-all rule and that escalation policy live in one place,
    {!Txn_decision}, which a node recovering a dangling transaction steps
    too: the coordinator finds the transaction, steps its decision with
    each vote, learn, outcome report and timeout, and sends, counts and
    emits from the verdict. *)

open Mdcc_storage

type t

type snapshot_source = {
  snap_read : Key.t -> (Value.t * int) option;
      (** committed value+version of the key at this DC's replica *)
  snap_scan : table:string -> (Key.t * Value.t * int) list;
      (** Nothing in [lib/] reads this field: it stays only because
          [bench/e2e] still builds it, and the next change to the benchmark
          deletes it.
          {!Cluster.Layout.snapshot} fills it with a stub that fails. *)
}
(** Direct handles on the storage-node stores co-located with the
    app-server, one per partition of its data center.  They answer the
    [`Local] read level and {!read_colocated}: a read-committed view
    served with {e zero} protocol messages.  Only deployments that
    actually co-locate app-servers with storage (the simulated cluster,
    the wire server's in-process replica group) can provide one. *)

val create :
  runtime:Runtime.t ->
  config:Config.t ->
  node_id:int ->
  replicas:(Key.t -> int list) ->
  master_of:(Key.t -> int) ->
  ?snapshot:snapshot_source ->
  ?ctx:Ctx.t ->
  unit ->
  t
(** Registers the app-server's message handler on the runtime's transport
    ({!Runtime.register}) — the coordinator never touches a clock or a
    socket except through [runtime], so the same state machine runs under
    the simulator and the real socket runtime.  [snapshot], when the
    deployment co-locates storage with the app-server, answers [`Local]
    reads without a message (without it, they go by message).  [ctx] (default {!Ctx.make}[ ()]) bundles the cross-cutting
    dependencies: [ctx.obs] receives the protocol-path counters ({!obs});
    every protocol step — submit, propose, collision, redirect, recovery,
    learn, decide — is an {!Event.t} on the node's stream ({!Ctx.stream}),
    built only while [ctx.history], [ctx.obs]'s spans or the runtime's
    tracing consume it. *)

val node_id : t -> int

val submit : t -> Txn.t -> (Txn.outcome -> unit) -> unit
(** Run the commit protocol for a write-set; the callback fires exactly once
    at decision time (Visibility is sent asynchronously, at the end of the
    decision's instant).  Made while a delivery holds the outbox, its
    proposals leave with that delivery's sends, without the transaction's
    trace context. *)

val read :
  ?level:[ `Local | `Majority ] ->
  t ->
  Key.t ->
  ((Value.t * int) option -> unit) ->
  unit
(** The one read entry point.  [`Local] (the default) is the paper's
    read-committed read of the replica in the app-server's own data center,
    possibly stale (§4.2): answered from the co-located store with no
    message, counted as [read_colocated], or, on a coordinator without a
    {!snapshot_source}, by one local round trip, counted as [read_local].
    [`Majority] queries all replicas and returns the freshest committed
    version once a classic quorum answered — up to date, at wide-area cost.
    (Session-consistent reads live one layer up: {!Session.read} with its
    [`Session] level.) *)

val read_row :
  level:[ `Local | `Majority ] ->
  t ->
  Key.t ->
  (Value.t -> int -> bool -> unit) ->
  unit
(** {!read} at [`Local] or [`Majority], answering the freshest reply's
    row as it stands: its value, its version, and whether it exists.  An
    absent row carries the version of its tombstone (0 for a key never
    written), which {!read}'s [None] drops: {!Session.read} compares it
    with the session's watermark. *)

val read_colocated :
  t ->
  Key.t ->
  fresh:(Key.t -> (Value.t * int) option -> bool) ->
  ((Value.t * int) option -> unit) ->
  bool
(** [read_colocated t key ~fresh cb] answers a [`Local] read without its
    message when it can: it looks [key] up in the co-located store and,
    if [fresh key row] holds, returns [true] and [cb] gets that row later,
    through the runtime.  Otherwise, and always on a coordinator without
    a {!snapshot_source}, it returns [false] and does nothing: the caller
    reads by message.  The store is the one a [`Local] read would message
    (this data center's replica of the key), so the answer is the row that
    read would find.  [fresh] gets [key] back so that a caller can pass
    one closure built once, not one per read.  {!read}'s [`Local] level
    is this read with every row fresh; {!Session.read}'s [`Session] level
    passes its watermark test. *)

val inflight : t -> int
(** Transactions submitted but not yet decided (diagnostics). *)

val runtime : t -> Runtime.t
(** The runtime the coordinator was created on: its clock, timers and
    transport. *)

val obs : t -> Mdcc_obs.Obs.t
(** The observability handle this coordinator reports into.  Its registry
    counts the protocol paths: [fast_commit] (every option learned on the
    pure fast path — the paper's one-round-trip common case),
    [assisted_commit] (a redirect, collision recovery or timeout helped, or
    the mode is Multi), [abort_conflict], [abort_constraint], [collision],
    [redirect] and [timeout_recovery]. *)
