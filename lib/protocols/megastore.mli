(** Megastore* — the paper's simulation of Megastore's replication protocol.

    Megastore synchronously replicates a commit {e log} per entity group
    with Paxos, agreeing on one log position per transaction; only one write
    transaction can be in flight per entity group at a time.  As in the
    paper (§5.2) we: place all data in a single entity group; add the
    Paxos-CP improvement of letting non-conflicting transactions commit in
    {e subsequent} log positions instead of aborting; keep a stable master
    (Multi-Paxos, Phase 1 skipped); and play in Megastore's favour by
    putting the master in US-West, where the evaluation also places its
    clients.

    The result is a serial log: each position costs a majority round trip
    from the master, so under moderate load transactions queue — the source
    of the paper's 17.8 s median latency. *)

open Mdcc_storage

type t

val create : Harness.deployment -> t
(** Install the protocol's handlers on the deployment, which must have one
    partition (a single entity group), mastered in US-West. *)

val submit : t -> dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit

val log_length : t -> int
(** Number of log positions decided so far. *)
