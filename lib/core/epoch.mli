(** A master's classic-round fan-out: Phase 2a at once to the replicas
    that decide the round, and in epochs to the rest.

    A classic round needs acks from a classic quorum [qc], the master's
    own among them.  {!plan} names the [qc - 1] other replicas with the
    lowest measured round trip (the near set), and every replica whose
    round trip is within the epoch E (40 ms) of the slowest near one.
    {!send} hands their Phase 2a to the outbox at once.  It holds every
    other replica's: the first held send arms an alarm, and when it fires,
    E later, all held sends leave in one {!Outbox} step, so each far
    replica receives one Batch and answers with one.  Every replica still
    receives every Phase 2a.

    Round trips are measured, not read from a topology, so the same code
    serves any deployment: where every round trip is about equal, as
    between the socket runtime's nodes, nothing is held.  A Phase 2a that
    leaves for a peer with no outstanding probe, at once or when the
    epoch ends, becomes its probe; the peer's answer to that very Phase
    2a ({!answered}) sets its estimate to the time since.  An unanswered
    probe counts for its age, so a slow or dead near replica ranks behind
    a far one once its probe is older than that replica's round trip.  A
    probe unanswered for a second is replaced, its age kept as the
    estimate.  While fewer than [qc - 1] other replicas have an estimate,
    {!plan} names them all.  Nothing here allocates once the per-peer
    arrays and the held queue have grown, and arming the alarm under
    {!Runtime.of_network} allocates nothing either. *)

type t

val epoch_ms : float
(** E, the longest a far replica's Phase 2a waits: 40 ms. *)

val create : Runtime.t -> Outbox.t -> now:Mdcc_sim.Engine.stamp -> t
(** A node's fan-out, sending through its outbox and reading the clock
    into [now]. *)

val plan : t -> self:int -> quorum:int -> int list -> int
(** [plan t ~self ~quorum replicas] reads the clock and returns the
    bitmask of the positions in [replicas] whose Phase 2a goes out at
    once.  [self]'s position is never in it. *)

val send : t -> mask:int -> pos:int -> int -> Woption.t -> Mdcc_sim.Network.payload -> unit
(** [send t ~mask ~pos dst w payload] sends [payload], the Phase 2a of
    option [w], to [dst], the replica at position [pos]: at once if
    [mask] names it, else at the end of the epoch. *)

val answered : t -> src:int -> Mdcc_storage.Key.t -> Mdcc_storage.Txn.id -> unit
(** A Phase 2b from [src] for the round of [key] and transaction: if it
    answers [src]'s probe, the round trip is sampled. *)
