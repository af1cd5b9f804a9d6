(** The quorum-writes baseline (QW-k): eventually consistent writes.

    "The standard for most eventually consistent systems" (§5.2): every
    update is sent to all replicas, each replica applies it immediately
    (last-writer-wins, no version checks, no constraints, no isolation or
    atomicity), and the client reports success after [w] acknowledgements
    per record.  The paper runs QW-3 and QW-4 against a replication factor
    of 5, with read quorum 1 (local reads). *)

open Mdcc_storage

type t

val create : Harness.deployment -> w:int -> t
(** Install the protocol's handlers on the deployment.  [w] is the write
    quorum size (3 or 4 in the paper). *)

val submit : t -> dc:int -> Txn.t -> (Txn.outcome -> unit) -> unit
(** Always reports [Committed] (the protocol cannot abort); latency is the
    time until every record collected [w] acks. *)
