(** Per-record Paxos/option state kept by every replica.

    This module holds the state one storage node keeps for one record —
    promised ballot, the fast-policy window, the chain of pending votes —
    and the {e pure} decision logic shared by all three places the paper
    makes an accept/reject decision: the acceptor's fast path
    (SetCompatible, Algorithm 3 lines 83–99), the master's classic
    validation, and collision/dangling recovery.

    The decision logic implements:
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
          never the wall clock.  The only writers are [Storage_node]'s
          [Runtime.now_into] call sites. *)
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
          shipped in Phase1b and recovery must honor both.  The storage
          node's visibility index guards against duplicates. *)
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
