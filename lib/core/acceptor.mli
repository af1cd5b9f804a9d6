(** The acceptor: the state a storage node keeps in its acceptor role,
    per record and per node, and one transition per input.

    A record's state ({!t}) is the paper's per-record Paxos state: the
    promised ballot, the classic (γ) window, the chain of pending votes,
    the applied set and the decided log.  A node's state ({!node}) holds
    its records and the tables around them: the promise marks, the free
    votes and the hot applied sets.  Both types
    are abstract: a driver reads a record only through the queries below,
    and only this module's functions change either.

    There are six steps, one per input: a fast proposal
    ({!fast_propose}), Phase 1a ({!phase1a}), the master's Phase 1
    resolution over a classic quorum's promises ({!resolve}), Phase 2a
    ({!phase2a}), a Visibility ({!visibility}) and a status query
    ({!status}).  Five of them change state; {!status} only reads.
    Anti-entropy installs a re-based state ({!rebase}) and replays a
    committed delta ({!repair}).  Each step takes its inputs, and the
    current time where it may vote, and answers with a verdict that is a
    constant constructor or a structured constant, so a step allocates
    only what it stores; {!resolve}, which runs once per recovery, answers
    a record.  The module has no runtime, sends nothing, counts
    nothing and emits nothing: {!Storage_node} drives it.  It finds the
    record, steps it, and sends, counts and emits from the verdict.  Lint
    rule [R6-runtime] keeps [Runtime], [Outbox], [Ctx], [Obs] and [Event]
    out of this file.

    No vote is cast below the record's promise: the one function that
    casts votes raises an [Invariant] violation otherwise.  A promise does
    {e not} only grow: once a record's classic window has ended, a fast
    proposal lowers a classic promise back to the implicit fast ballot
    before it votes (the γ fallback).  "A promise never decreases" waits
    for ballot ranges that only grow (ROADMAP item 6, "Ballot ranges as
    the paper keeps them").

    The {e pure} decision logic here is shared by all three places the
    paper makes an accept/reject decision: the acceptor's fast path
    (SetCompatible, Algorithm 3 lines 83–99, in {!fast_propose}), the
    master's classic validation ({!escrow}), and collision recovery
    ({!resolve}); the 2PC and Megastore* baselines borrow it through
    {!valid}.  It implements:
    {ul
    {- write-write conflict detection via version preconditions
       ([vread] must equal the current version);}
    {- the "one outstanding option per record" rule (an accepted, not yet
       executed option makes conflicting later options {e rejected}, which is
       the paper's deadlock-avoidance trick of §3.2.2 — the loser learns a
       rejection instead of blocking);}
    {- commutative acceptance with value constraints: quorum demarcation
       ([`Quorum]) on acceptors, plain escrow ([`Escrow]) at a master that is
       the sole decider (§3.4.2).}} *)

open Mdcc_storage
open Mdcc_paxos

type applied = Update.t Txn.Map.t
(** An applied set: txid -> the update that transaction contributed.  A
    record keeps every committed transaction folded into its copy of the
    row, with the update it contributed: the input to the anti-entropy
    digest and the set exchanged in [Sync_reply] repair.  Membership is
    what makes replaying a commutative delta idempotent, and it is the
    only record of these transactions' outcome: membership means
    committed.  Rebases and [Sync_reply] carry an immutable map; a
    record's own set moves into a txid table once it reaches 32 entries,
    so an insert stays O(1) however long the record's history. *)

type t
(** One record's acceptor state, the paper's per-record Paxos state: the
    promised ballot, the classic (γ) window, the pending chain (one vote
    per outstanding transaction, in arrival order, each holding its
    option, decision, ballot and the time it was cast; a node reuses the
    votes of settled options, and {!promise} and {!status} report copies),
    the applied set and the decided log (the outcomes a visibility erased from
    the chain that the applied set does not hold: voided transactions,
    committed read guards, committed transactions a rebase clobbered).
    The log is the only home of those outcomes, each txid once, newest
    first; {!outcome} walks it.  Only the steps below, {!rebase} and
    {!repair} change it. *)

val applied_missing : mine:applied -> theirs:applied -> applied
(** The entries of [theirs] absent from [mine] — exactly what a repair has
    to replay. *)

val mem_pending : t -> Txn.id -> bool

val any_older : t -> now:Mdcc_sim.Engine.stamp -> float -> bool
(** [any_older t ~now limit]: is [now -. proposed_at > limit] for some
    vote?  Allocates nothing, so an idle dangling scan can ask it of
    every record. *)

val older_than : t -> now:Mdcc_sim.Engine.stamp -> float -> Woption.t list
(** The options of the votes {!any_older} would find, in arrival order. *)

val in_classic_era : t -> version:int -> bool
(** Must proposals for the next instance go through the master? *)

type reject_reason =
  | Version_validation
      (** missing/stale record or [vread] mismatch — write-write conflict *)
  | Outstanding_option
      (** an accepted, unexecuted option blocks this one (§3.2.2) *)
  | Demarcation  (** value bounds / quorum-demarcation limit exceeded *)
(** Why an option is rejected: the first failing clause, checked in the
    fixed order version validation → outstanding option → demarcation, so
    the reason is deterministic even for multiply-invalid options. *)

val decision_of : reject_reason option -> Woption.decision
(** [Accepted] for [None], [Rejected] otherwise. *)

val valid : bounds:Schema.bound list -> Store.row -> Update.t -> bool
(** Would a sole decider with nothing pending accept the update against
    the row: version validation and the value bounds, as {!escrow} decides
    on a record with no vote.  The 2PC and Megastore* baselines validate
    with it. *)

(** {1 A node's acceptor} *)

type node
(** One storage node's acceptor: its records, by key, and the tables
    around them. *)

val create_node : config:Config.t -> Store.t -> node
(** An acceptor with no records over the node's committed state, which it
    reads and writes in place; the bounds are those of the store's
    schema. *)

val record : node -> Key.t -> t
(** The key's record, created (fast era in Full mode, classic forever in
    Multi mode) on first use. *)

val outcome : node -> t -> Txn.id -> bool option
(** The transaction's visibility outcome at this record, if known:
    [Some true] when it committed.  It looks in the applied set, then
    walks the decided log, and allocates nothing. *)

val applied : node -> Key.t -> applied
(** The key's applied set as an immutable snapshot: the empty set for a
    key with no record, which the lookup does not create. *)

val rebase_of : node -> Key.t -> Messages.rebase
(** The key's committed state, tagged with every transaction folded into
    it. *)

val rebase : node -> Key.t -> Messages.rebase -> bool
(** Install a re-based state when it is newer than the row, and answer
    whether it was.  The applied set becomes exactly [included]; a txid in
    it drops its pending vote or leaves the decided log, and one we had
    applied that the rebaser lacks moves to the log, still committed. *)

val repair : node -> t -> Txn.id -> Update.t -> unit
(** Replay a committed delta a peer's applied set holds and ours lacks
    (anti-entropy): its vote and logged outcome go, and it joins the row
    and the applied set. *)

val pending_records : node -> int
(** Records with a pending vote, kept exact on every change to a chain. *)

val pending_options : node -> int
(** Pending votes across every record. *)

val any_record : (Key.t -> t -> unit) -> node -> bool
(** [Key.Tbl.any] over the records: does [f] raise [Key.Tbl.Found] on
    one?  [f] must not change the records. *)

val filter_records : (Key.t -> t -> 'a option) -> node -> 'a list
(** [Key.Tbl.sorted_filter_map] over the records, in key order. *)

(** {2 Queries}

    What a driver reads of a record to answer a step.  None changes it. *)

val classic_until : t -> int
(** The end of the record's classic (γ) window: versions below it must
    use classic ballots; [max_int] in Multi mode.  A [Redirect] reports
    it, and a master's Phase 2a carries it. *)

val promised : t -> Ballot.t
(** The highest ballot the record promised or voted at: the ballot a
    Phase 1b or Phase 2b answers with. *)

val escrow : node -> t -> Update.t -> reject_reason option
(** The master's verdict on a classic proposal, as the reason it rejects
    ([None]: accepted): the decision plain escrow makes against the
    record's committed row and every pending vote.  A stable
    master's own votes mirror every classic option in flight. *)

(** {2 The transitions} *)

type fast =
  | Outcome of bool
      (** the transaction is decided here, committed or not: the proposer
          hears that outcome, never a vote *)
  | Standing of Woption.decision  (** the option already has this vote: answer it again *)
  | Redirect  (** the record runs classic ballots: send the proposer to the master *)
  | Vote of reject_reason option  (** a new vote, [Accepted] exactly for [None] *)
  | Behind
      (** a new vote rejecting on [Version_validation], whose read version
          is ahead of this replica's: it missed an update and should catch
          up from the master *)

val fast_propose : node -> t -> now:Mdcc_sim.Engine.stamp -> Woption.t -> fast
(** SetCompatible (Algorithm 3): vote on a fast proposal of the record's
    option.  No vote is cast inside the record's classic window, nor while
    its classic promise awaits the Phase 2a of the Phase 1 that made it;
    once the window has ended, the record falls back to the fast ballot.
    A vote is stamped with [now]. *)

val phase1a : node -> t -> Ballot.t -> bool
(** Promise the ballot if it is above the record's promise, and answer
    whether it did.  A promise marks the record: no fast vote is cast
    until a Phase 2a at or above it arrives.  The Phase 1b reply carries
    the record's [promised] and {!promise}. *)

val promise : node -> t -> Messages.promise
(** What Phase 1b reports: the record's pending votes, committed state and
    decided log (newest first, each txid once and none in the applied
    set). *)

type resolution = {
  rebased : bool;  (** the re-based state moved the record's row *)
  rebase : Messages.rebase;  (** the freshest committed state, which the Phase 2a's carry *)
  window : int;  (** the recovered classic window's end, which they carry too *)
  known : (Woption.t * bool) list;  (** outcomes a responder or this node knows: announced *)
  outcomes : (Woption.t * Woption.decision) list;  (** the rest, decided, in re-proposal order *)
  forced : int;  (** options of [outcomes] whose votes forced the decision *)
  free : int;  (** options of [outcomes] no vote forced *)
}

val resolve :
  node -> t -> promises:(int * Messages.promise) list -> extras:Woption.t list ->
  replicas:int list -> resolution
(** The master's Phase 1 resolution (ProvedSafe) over a classic quorum's
    promises, each tagged with its acceptor in [replicas], and the options
    escalated to the master ([extras]).  It installs the freshest committed
    state ({!rebase}).  An option's highest classic vote (the later in
    [promises] among equals), or fast votes at [Quorum.anchor_threshold], force its
    decision; the rest are free.  One pass, classic by ballot, then forced
    fast, then free (oldest instance first, then txid), validates each
    against the re-based row plus the options accepted before it, under
    plain escrow: a forced reject or commutative accept stands.  The
    record's window widens to [rebase.version + γ] ([max_int] in Multi
    mode). *)

type phase2a =
  | Refused  (** the ballot is below the promise: no vote *)
  | Voted  (** the ballot took and the option has this replica's vote *)
  | Known  (** the ballot took, but the option's outcome is known here: no vote *)
  | Voted_rebased | Known_rebased
      (** as [Voted] and [Known], and the ballot's re-based state repaired the row *)

val phase2a :
  node ->
  t ->
  now:Mdcc_sim.Engine.stamp ->
  Ballot.t ->
  Woption.t ->
  Woption.decision ->
  classic_until:int ->
  rebase:Messages.rebase option ->
  phase2a
(** Vote on a classic Phase 2a.  A ballot at or above the promise becomes
    the promise, clears the promise mark, widens the classic window to
    [classic_until] (a window never narrows) and installs the re-based
    state ({!rebase}); the option then gets the master's decision as its
    vote, stamped with [now], unless its outcome is known.  The Phase 2b carries the record's
    [promised], acknowledging exactly when the verdict is not [Refused]. *)

type visibility =
  | Ignored  (** the outcome was already known here *)
  | Unknown
      (** a committed placeholder for an option this replica never saw:
          refused, its vote kept, until the master's state repairs it *)
  | Wrote  (** committed and written to the row *)
  | Skipped
      (** committed without a write: a read guard, or an update a rebase
          already folded in *)
  | Voided  (** aborted *)

val visibility : node -> Txn.id -> Key.t -> Update.t -> bool -> visibility
(** ApplyVisibility (Algorithm 3): execute or void the transaction's
    option on the key.  The outcome is stored once: a committed
    value-affecting update in the applied set, anything else in the
    decided log.  A key with no record gets one unless the verdict is
    [Ignored] or [Unknown]. *)

val status : node -> Txn.id -> Key.t -> Messages.status
(** What the replica knows of the transaction on the key, for a dangling
    transaction's recovery.  The lookup never creates a record. *)
