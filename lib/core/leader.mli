(** The leader: one record's master state, and one step per input
    (Algorithm 2, lines 27–57).

    A [t] holds what the record's master keeps: the classic ballot it
    leads at, the highest ballot number it has used, the classic rounds
    running (each with its acks in a {!Mdcc_paxos.Quorum.tally}), the
    options queued behind them, and its Phase 1 ({!attempt}): the ballot,
    the promises, the options it will re-propose and who to tell.

    There is one step per input: a propose ({!propose}: a classic
    [Propose], a [Start_recovery], or a recoverer's escalation to
    itself), a Phase 2b ({!ack}), a Phase 1b ({!promise}) and the two
    Phase 1 timers ({!redrive} on silence, {!backoff} after a nack);
    {!dequeue} starts the queue's head once a learned round has been
    announced, and {!forward} names who waits on a handed-over option.

    One node leads a record at a time: a master whose round an acceptor
    refuses for another node's higher ballot hands its rounds and queue
    to that node ({!Handover}) rather than running a Phase 1 against
    it.  Each step calls the {!Acceptor} steps it needs itself and
    answers a constant {!verdict}, except that a resolved Phase 1 hands
    over what {!Acceptor.resolve} answered and a {!Handover} the options
    it let go of; the driver reads the rest
    back from the state: the ballot to send at, the round started or
    learned, who asked.  The module has no runtime, sends nothing,
    counts nothing, emits nothing and draws no randomness: {!Storage_node}
    finds the record's leader, steps it, and then sends, arms the timers,
    counts and emits.  Lint rule [R6-runtime] holds it to that. *)

open Mdcc_storage
open Mdcc_paxos

type t

type attempt
(** One Phase 1, from its start to its resolution, across the ballots
    its re-drives and nacks move it to: the token a Phase 1 timer holds. *)

type verdict =
  | Pending  (** nothing to send *)
  | Outcome of bool
      (** {!propose}: the option's transaction is decided at this record,
          committed or not: its proposer and [notify] hear that outcome,
          never a vote *)
  | Round of Acceptor.reject_reason option
      (** {!propose}, {!dequeue}: a classic round started for {!option}
          at {!ballot}, escrow's verdict given: count it and send the
          Phase 2a's *)
  | Learned
      (** {!ack}: a classic quorum acked {!option}'s round: announce its
          {!decision} to {!notify} and its coordinator, then {!dequeue} *)
  | Phase1
      (** {!propose}, {!ack}: a Phase 1 started at {!ballot}, with every
          running round and queued option folded in: send its Phase 1a's
          and arm the re-drive *)
  | Redrive
      (** {!redrive}: the Phase 1 moved to a new {!ballot}: send its
          Phase 1a's and arm the next re-drive *)
  | Phase1a  (** {!backoff}: send the Phase 1a's at {!ballot} again *)
  | Nacked
      (** {!promise}: an acceptor promised higher, and the Phase 1 moved
          above it: arm the backoff *)
  | Resolved of Acceptor.resolution
      (** {!promise}: a classic quorum promised, and {!Acceptor.resolve}
          answered this, once per Phase 1; this node leads at {!ballot}
          and runs a round per undecided option.  Announce the known
          outcomes to the {!attempt}'s {!waiting}, then send the rounds'
          Phase 2a's *)
  | Handover of { leader : int; released : Woption.t list }
      (** {!ack}: an acceptor refused a round for the higher ballot of
          node [leader]: it leads the record now.  This node leads
          nothing and let go of [released], every round's option and
          then the queue's: send [leader] a [Start_recovery] for each *)

val create : Config.t -> self:int -> master_of:(Key.t -> int) -> Key.t -> t
(** The master state of [key] at node [self].  In Multi mode the
    statically assigned master leads at ballot 1 from the start, with no
    Phase 1 (a stable master); any other leads nothing. *)

(** {1 Reading back} *)

val ballot : t -> Ballot.t
(** The running Phase 1's ballot, else the one it leads at (a fast ballot
    when it leads none). *)

val leads : t -> bool

val option : t -> Woption.t
(** The option of the round the latest {!Round} or {!Learned} named. *)

val decision : t -> Woption.decision

val notify : t -> int list
(** Who else asked for that round's decision. *)

val attempt : t -> attempt
(** The latest Phase 1, running or not. *)

val running : t -> bool
(** Whether a Phase 1 runs. *)

val extras : attempt -> Woption.t list
(** The options the running Phase 1 will re-propose besides those its
    promises report. *)

val waiting : attempt -> int list
(** Who asked for the decisions the Phase 1 will reach. *)

(** {1 Steps} *)

val propose :
  t -> Acceptor.node -> Acceptor.t -> Store.t -> self:int -> Woption.t -> notify:int list ->
  verdict
(** An option for the master to decide, [notify] asking for the decision
    too.  A decided transaction answers its {!Outcome}.  A re-proposal
    joins its option's round, or its queue entry.  During Phase 1, or
    with a vote for the option already here (which only a quorum's
    promises can classify), the option joins Phase 1, starting one if
    none runs; so it does when this node leads nothing or the record is
    past its classic window.  Otherwise a physical option behind a
    running round, or any option behind a queue, waits in the queue, and
    the rest start a {!Round}: commutative options pipeline. *)

val dequeue : t -> Acceptor.node -> Acceptor.t -> verdict
(** Start the queue's head if it can run now: a {!Round}, else
    [Pending].  Either way the learned round is let go. *)

val ack :
  t -> self:int -> quorum:int -> replicas:int list -> src:int -> Txn.id -> Ballot.t -> ok:bool ->
  verdict
(** A Phase 2b from [src], one of [replicas], for the transaction's
    round, at the acceptor's promise [Ballot.t].  An ack at another
    ballot is ignored, and a repeated one counts once; [quorum] acks
    learn the round.  A refusal reports the acceptor's higher promise:
    made by another node, it is a {!Handover} to that node.  Made by this
    one, it is a Phase 2a of an older round that arrived after this
    node's next Phase 1: at the round's own ballot it steps down (the
    round, the other rounds and then the queue fold into a new
    {!Phase1}); above it, it is ignored.  The askers of a handed-over
    option other than its coordinator and [self] wait here for the new
    leader's decision ({!forward}). *)

val forward : t -> Txn.id -> int list
(** Who waits on this node for the decision of [txid]'s handed-over
    option, now that it is here: they stop waiting.  [] for any other
    transaction.  A {!propose} of the option takes them on as its own
    askers instead. *)

val promise :
  t -> Acceptor.node -> Acceptor.t -> self:int -> quorum:int -> replicas:int list -> src:int ->
  Ballot.t -> ok:bool -> promised:Ballot.t -> Messages.promise -> verdict
(** A Phase 1b from [src] at the running Phase 1's ballot (any other is
    ignored).  A promise counts once per acceptor, and [quorum] of them
    resolve the Phase 1 through {!Acceptor.resolve}.  A nack moves the
    Phase 1 to ballot number [max highest promised + 1]. *)

val redrive : t -> self:int -> attempt -> verdict
(** The re-drive timer of [attempt]: while it still runs, it moves to the
    next ballot number and sends again. *)

val backoff : t -> attempt -> Ballot.t -> verdict
(** The backoff timer of [attempt], armed when a nack moved it to
    [Ballot.t]: while it still runs at that ballot, it sends again.  A
    re-drive since the nack has sent at a newer ballot already. *)
