(** The acceptor: the state a storage node keeps in its acceptor role,
    per record and per node, and one transition per input.

    A record's state ({!t}) is the paper's per-record Paxos state: the
    promised ballot, the fast-policy window, the chain of pending votes,
    the applied set and the decided log.  A node's state ({!node}) holds
    its records and the tables around them: the promise marks, the
    visibility index, the vote pool and the hot applied sets.

    Five transitions change them, one per input: a fast proposal
    ({!fast_propose}), Phase 1a ({!phase1a}), Phase 2a ({!phase2a}), a
    Visibility ({!visibility}) and a status query ({!status}).  Each takes
    its inputs, and the current time where it may vote, and answers with a
    verdict that is a constant constructor or a structured constant, so a
    step allocates only what it stores.  The module has no runtime, sends
    nothing, counts nothing and emits nothing: {!Storage_node} drives it.
    It finds the record, steps it, and sends, counts and emits from the
    verdict.  Lint rule [R6-runtime] keeps [Runtime], [Outbox], [Ctx],
    [Obs] and [Event] out of this file.

    The {e pure} decision logic here is shared by all three places the
    paper makes an accept/reject decision: the acceptor's fast path
    (SetCompatible, Algorithm 3 lines 83–99), the master's classic
    validation, and collision/dangling recovery.  It implements:
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

type vote = private {
  mutable woption : Woption.t;
  mutable decision : Woption.decision;  (** this replica's current vote *)
  mutable ballot : Ballot.t;  (** ballot the vote was cast at *)
  proposed_at : Mdcc_sim.Engine.stamp;
      (** {e simulated} time of the vote, for dangling detection, in a flat
          cell the vote owns, so stamping it allocates nothing.  The cell's
          one field is a [sim_time], not a bare [float], as lint rule R1
          requires of protocol timestamps: it is fed from the engine clock,
          never the wall clock.  The only writer is a transition that
          votes, which copies the stamp its driver filled. *)
  mutable next : vote;  (** the next vote in arrival order, or {!none} *)
}
(** One outstanding option this replica voted on: an element of a
    record's pending chain.  A storage node takes its votes from a
    {!pool} and returns them there when the option settles, so a vote
    allocates nothing once the pool holds as many as the node has
    outstanding.  Never keep a vote past the call that found it: once
    released it is reused for another option.  Copy its fields instead, as
    Phase 1b and a status reply do. *)

val none : vote
(** The end of every chain and the "no vote" answer.  A released vote
    holds the same [woption] as [none], so it pins no transaction. *)

val vote : ?next:vote -> Woption.t -> Woption.decision -> Ballot.t -> vote
(** A fresh vote, outside any pool, linked in front of [next] (default
    {!none}): how a recovery builds the accepted set it validates
    against, and how tests build chains. *)

type applied = Update.t Txn.Map.t
(** An applied set: txid -> the update that transaction contributed.  A
    record's set is this map while it is small and a table in its node's
    {!Applied.store} once it is hot; rebases and [Sync_reply] carry an
    immutable map either way, the record's own or an {!Applied.snapshot}. *)

type t = {
  key : Key.t;
  mutable promised : Ballot.t;  (** highest Phase1a answered (mbal_a) *)
  mutable classic_until : int;
      (** record versions below this must use classic ballots (γ window);
          [max_int] in Multi mode *)
  mutable pending : vote;
      (** outstanding votes, a chain in arrival order ({!none} when there
          are none); one vote per transaction *)
  mutable applied : applied;
      (** every committed transaction folded into this replica's copy of the
          record, with the update it contributed.  This is the authoritative
          input to the anti-entropy digest and the set exchanged in
          [Sync_reply] repair; txid membership is what makes replaying a
          commutative delta idempotent.  It is also the only record of
          these transactions' visibility outcome: membership means
          committed.  Read it through {!Applied}: once the set reaches 32
          entries the field holds a shared marker and the set lives in the
          node's {!Applied.store}. *)
  mutable decided : (Txn.id * bool) list;
      (** the other visibility outcomes (committed?) known at this replica —
          voided transactions, committed read guards, committed
          transactions a rebase clobbered — newest first, each txid once and
          none in [applied].  A visibility is a final decision, yet it
          erases the option's pending vote, so later classic ballots cannot
          re-learn it from votes alone: the log and the applied set are
          shipped in Phase1b and recovery must honor both.  The node's
          visibility index guards against duplicates. *)
}

val create : ?classic_until:int -> Key.t -> t

(** {2 Applied-set operations}

    Pure functions over applied sets, plus the one mutator
    ({!mark_applied}).  All are deterministic and idempotent:
    [applied_add s txid up] is a no-op when [txid] is already a member, so
    merging the same [Sync_reply] twice — or in either order — yields the
    same set. *)

val applied_add : applied -> Txn.id -> Update.t -> applied
(** Identity if [txid] is already present; O(log n) otherwise. *)

val applied_missing : mine:applied -> theirs:applied -> applied
(** The entries of [theirs] absent from [mine] — exactly what a repair has
    to replay. *)

val mark_applied : t -> Txn.id -> Update.t -> unit
(** Record that this replica folded [txid]'s update into its value, on a
    record whose set is still a map: O(log n), the small representation's
    insert.  {!Applied.add} calls it below the promotion size; on a
    promoted record it violates an invariant. *)

(** {2 Hot records}

    A record's applied set gains one entry per committed transaction, so as
    a map it would path-copy O(log n) nodes on every visibility, with n
    growing with run length.  A set that reaches 32 entries moves into a
    mutable txid table kept by its node, where insert
    and membership are O(1).  A {!Applied.snapshot} of a promoted set is
    built in txid order on demand and cached until the next insert.  Every
    function answers exactly what the set as one map would; only the
    allocation differs. *)
module Applied : sig
  type store
  (** A storage node's promoted sets, by record key.  Its table is built on
      the first promotion. *)

  val store : unit -> store

  val mem : store -> t -> Txn.id -> bool

  val add : store -> t -> Txn.id -> Update.t -> unit
  (** {!applied_add} in place: a no-op when [txid] is a member.  O(1) on a
      promoted record. *)

  val snapshot : store -> t -> applied
  (** The set as an immutable map.  Free for a small set; for a promoted
      one, the cached map, caught up with the entries added since it was
      taken. *)

  val replace : store -> t -> applied -> unit
  (** Make the set exactly the given map, promoting or demoting the record
      by the map's size (a rebase installs the rebaser's set this way). *)
end

(** {2 The pending chain}

    Only {!add_pending} and {!remove_pending} change a chain.  Every walk
    is a top-level recursion, so none allocates beyond what it returns. *)

type pool
(** A storage node's stack of released votes, linked through [next]. *)

val pool : unit -> pool

val add_pending : pool -> t -> Woption.t -> Woption.decision -> Ballot.t -> vote
(** Append a vote for the option at the end of the chain and answer it;
    the caller stamps its [proposed_at].  An existing vote for the same
    transaction is moved to the end and overwritten; otherwise the vote
    comes from the pool, or is allocated when the pool is empty. *)

val remove_pending : pool -> t -> Txn.id -> unit
(** Unlink the transaction's vote, if any, and return it to the pool. *)

val find_pending : t -> Txn.id -> vote
(** The transaction's vote.  Raises [Not_found] when there is none. *)

val mem_pending : t -> Txn.id -> bool

val pending_count : t -> int

val votes : t -> Messages.vote list
(** Copies of the chain's votes, in arrival order: a Phase 1b promise. *)

val any_older : t -> now:Mdcc_sim.Engine.stamp -> float -> bool
(** [any_older t ~now limit]: is [now -. proposed_at > limit] for some
    vote?  Allocates nothing, so an idle dangling scan can ask it of
    every record. *)

val older_than : t -> now:Mdcc_sim.Engine.stamp -> float -> Woption.t list
(** The options of the votes {!any_older} would find, in arrival order. *)

val in_classic_era : t -> version:int -> bool
(** Must proposals for the next instance go through the master? *)

type valuation = Store.row = {
  mutable value : Value.t;
  mutable version : int;
  mutable exists : bool;
}
(** The committed state a decision is evaluated against: a store row,
    passed as it is.  The decision functions only read it. *)

type demarcation = [ `Quorum of int * int  (** (n, fast-quorum size) *) | `Escrow ]

type reject_reason =
  | Version_validation
      (** missing/stale record or [vread] mismatch — write-write conflict *)
  | Outstanding_option
      (** an accepted, unexecuted option blocks this one (§3.2.2) *)
  | Demarcation  (** value bounds / quorum-demarcation limit exceeded *)

val evaluate :
  bounds:Schema.bound list ->
  demarcation:demarcation ->
  valuation ->
  pending:vote ->
  Update.t ->
  Woption.decision
(** The accept/reject decision for a new option given committed state and
    the outstanding votes, a chain of which only the [Accepted] votes
    count.  Deterministic; safe to run at any replica that has the same
    inputs. *)

val classify :
  bounds:Schema.bound list ->
  demarcation:demarcation ->
  valuation ->
  pending:vote ->
  Update.t ->
  reject_reason option
(** {!evaluate}'s decision as the reason it rejects: [None] exactly when the
    option is accepted, otherwise the first failing clause (checked in the
    fixed order version validation → outstanding option → demarcation, so
    the reason is deterministic even for multiply-invalid options). *)

val decision_of : reject_reason option -> Woption.decision
(** [Accepted] for [None], [Rejected] otherwise. *)

val demarcation_lower_ok :
  n:int -> qf:int -> base:int -> lower:int -> pending_neg:int -> delta_neg:int -> bool
(** Exact integer form of the lower-limit test
    [base + pending_neg + delta_neg >= L],
    [L = lower + (n-qf)/n * (base - lower)] — exposed for direct unit and
    property testing of the §3.4.2 formula. *)

val demarcation_upper_ok :
  n:int -> qf:int -> base:int -> upper:int -> pending_pos:int -> delta_pos:int -> bool

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

val bounds : node -> Key.t -> Schema.bound list
(** The value constraints of the key's table. *)

val outcome : node -> t -> Txn.id -> bool option
(** The transaction's visibility outcome at this record, if known:
    [Some true] when it committed. *)

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
    decided log. *)

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
    [classic_until] and installs the re-based state ({!rebase}); the
    option then gets the master's decision as its vote, stamped with
    [now], unless its outcome is known.  The Phase 2b carries the record's
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
