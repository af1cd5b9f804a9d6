(** The two-phase-commit baseline over fully replicated records.

    The paper's strongest conventional competitor (§5.2): the app-server
    prepares {e all} replicas of every record in the write-set (exclusive
    record locks, version validation, escrow constraint checks), commits
    only if every single replica voted yes, and acknowledges the client
    after the second round completes.  Consequently it costs two wide-area
    round trips, must wait for the {e slowest} of all five data centers, and
    is not resilient to a single node failure — a prepared record stays
    locked until its coordinator decides (the blocking behaviour MDCC is
    designed to avoid). *)

open Mdcc_storage

type t

val create : Harness.deployment -> t
(** Install the protocol's handlers on the deployment. *)

val submit : t -> dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit

val locks_held : t -> int
(** Total locks currently held across all storage nodes — used by tests to
    demonstrate 2PC's blocking behaviour on coordinator failure. *)
