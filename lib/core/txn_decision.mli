(** The decision of one transaction, computed from its per-key instances:
    the learned-all rule of PAPER.md §1 item 9, written once.

    A transaction's outcome is a deterministic function of what its
    options' instances learned: it committed iff every key learned
    [Accepted].  As in Paxos Commit (Gray & Lamport), the transaction
    manager and any recovery manager compute that one decision from the
    same per-participant instances.  Here the coordinator ({!Coordinator})
    and a node recovering a dangling transaction ({!Storage_node}) both
    keep a [t] and step it.

    A [t] holds one slot per write-set key: the key's option, the replies
    counted for it ({!Mdcc_paxos.Quorum.tally}), its learned decision and
    how often it was escalated.  There is one step per input, and each
    answers a {!verdict} that is a constant.  Where the two drivers act
    differently, the input says so, not a flag:
    - a fast vote ({!fast_vote}) is the coordinator's: a fast quorum of
      votes learns the key, and a vote that leaves no outcome a fast
      quorum answers {!Collided}, escalated at once;
    - a status reply ({!status}) is the recoverer's: a pending vote
      counts as a vote and may report the key's option, a decided reply
      settles the transaction, and a key still undecided after a classic
      quorum of replies is escalated once, to its master;
    - a learn ({!learn}), a transaction-outcome report ({!outcome}) and a
      timeout ({!timeout}) read the same for both.

    Every escalation is counted, and its target ({!target}) is the key's
    master; when the driver suspects the master, repeated escalations
    rotate through the key's replicas, master first, to bypass it.  The
    module has no runtime, sends nothing, counts nothing and emits
    nothing; lint rule [R6-runtime] holds it to that. *)

open Mdcc_storage

type t

type verdict =
  | Pending  (** nothing for the driver to do *)
  | Escalate
      (** ask {!target} to force the key's instance through its master,
          with the key's {!option} *)
  | Collided
      (** a fast quorum can no longer form for either outcome: a
          collision, escalated as {!Escalate} is *)
  | Decided of Txn.outcome
      (** the transaction is decided: the driver issues the Visibilities
          and drops the decision *)

val of_txn : replicas:(Key.t -> int list) -> coordinator:int -> Txn.t -> t
(** A coordinator's decision: one slot per update of a transaction that
    writes, each with its option, in ascending key order. *)

val of_option : replicas:(Key.t -> int list) -> self:int -> Woption.t -> t
(** A recovery's decision from one option of the transaction: one slot
    per key of its write-set, in write-set order.  A key other than the
    option's holds a placeholder until a replica reports its option: a
    physical update at an impossible read version, proposed by [self],
    which a proposal deterministically rejects (making the abort durable)
    and a committed Visibility refuses. *)

val length : t -> int

val txid : t -> Txn.id

val find : t -> Key.t -> int
(** The index of [key]'s slot, or -1.  A linear scan: write-sets are a
    handful of keys. *)

val option : t -> int -> Woption.t
(** The slot's option: the proposed or first reported one, else the
    placeholder. *)

val replicas : t -> int -> int list

val learned : t -> int -> Woption.decision option

val votes : t -> int -> Mdcc_paxos.Quorum.tally
(** The replies counted for the slot. *)

val redirect : t -> int -> bool
(** Route the slot's option to its master for a classic round, as the
    client's classic-window policy or a Redirect asks: [true] when the
    key is open and was not routed there yet. *)

val redirected : t -> int -> bool
(** Whether {!redirect} routed the slot's option to its master. *)

val fast_path : t -> bool
(** No slot was redirected or escalated: a commit took the paper's one
    round trip. *)

val target : t -> int -> master:int -> rotate:bool -> int
(** Where the slot's latest escalation goes: [master], unless [rotate]
    says the driver suspects it.  Then the [k]-th escalation ([k] from 0)
    goes to element [k mod m] of [master] followed by the slot's other
    replicas, [m] long: the first two go to [master]. *)

(** {1 Steps} *)

val fast_vote : Config.t -> t -> int -> acceptor:int -> Woption.decision -> verdict
(** A fast Phase 2b on an open key, counted once per acceptor.  A fast
    quorum of equal votes learns it; a vote that first makes a fast quorum
    impossible for both outcomes answers [Collided]. *)

val status : Config.t -> t -> int -> acceptor:int -> Messages.status -> verdict
(** A status reply, counted once per acceptor, learned or not: a pending
    vote as a vote (its option kept when none was reported yet), any other
    status as a reply that casts none.  A decided reply settles the
    transaction with the replica's outcome.  A fast quorum of equal votes
    learns the key; a key still open after a classic quorum of replies,
    and never escalated, is escalated. *)

val learn : t -> int -> Woption.decision -> verdict
(** The key's instance was learned by its master; the first decision
    stands. *)

val outcome : t -> int -> bool -> verdict
(** A replica reports the transaction already decided.  A commit means
    every option was accepted, so the key learns [Accepted]; an abort says
    nothing of this option's value, so the transaction aborts at once. *)

val timeout : t -> int -> verdict
(** The key is still open after a timeout: escalated. *)

val fill : t -> int -> Woption.t -> unit
(** Keep [w] as the slot's option unless a replica reported one. *)
