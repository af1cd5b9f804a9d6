(** Quorum arithmetic for Classic and Fast Paxos.

    With replication factor [n], a classic quorum has
    [floor(n/2) + 1] members; a fast quorum must additionally guarantee that
    any two fast quorums and any classic quorum share a member
    ([2f + c - 2n >= 1], §3.3.1 requirement (ii)); the typical setting used
    throughout the paper is [n = 5, c = 3, f = 4].

    {!anchor_threshold} is the fast half of the collision-recovery rule of
    Fast Paxos (Phase2Start / ProvedSafe); the record protocol's master
    applies it to every option its Phase1b quorum reports. *)

val classic_size : n:int -> int

val fast_size : n:int -> int
(** Smallest [f] satisfying the fast-quorum intersection requirement given
    the classic size for the same [n]. *)

val anchor_threshold : n:int -> f:int -> responded:int -> int
(** [anchor_threshold ~n ~f ~responded]: how many of the [responded]
    Phase1b answers must report the same fast vote for it to be possibly
    chosen, [f - (n - responded)] — a fast quorum of [f] can only have
    formed if the [n - responded] silent acceptors completed those voters.
    A fast vote below the threshold was provably not chosen.  [f] is passed
    in rather than taken from {!fast_size}, so a configured fast quorum
    ([Config.fast_quorum]) applies. *)

val position : int -> int list -> int
(** [position acceptor replicas]: [acceptor]'s index in its replica
    group, or -1 when it is not a member.  Votes are counted in a bitmask
    of these positions, so a repeated vote counts once. *)

val fast_impossible : n:int -> acks:int -> rejects:int -> bool
(** With [acks] positive and [rejects] negative responses so far out of [n],
    can a fast quorum still be reached for {e either} outcome?  [true] means
    a Fast Paxos collision is certain and recovery should start. *)
