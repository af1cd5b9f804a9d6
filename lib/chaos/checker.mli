(** History-based safety checking.

    Given a recorded {!Mdcc_core.History.t}, decide whether the execution
    was correct.  Checked invariants:

    {ol
    {- {b atomic-visibility} — a transaction's options are executed
       everywhere or voided everywhere: no replica may execute an option of
       a transaction another replica (or the coordinator) aborted;}
    {- {b lost-update} — at most one committed physical/delete writer per
       (key, read-version): two committed transactions that both updated the
       same record from the same version overwrote each other;}
    {- {b decision-agreement} — a transaction decided more than once (a
       recovery coordinator may re-announce a dangling transaction's fate)
       is decided the {e same} way every time: a cross-partition
       transaction whose groups settle on different outcomes is a torn
       commit;}
    {- {b option-agreement} — an option is never learned both Accepted
       and Rejected: every coordinator [Learned] and master
       [Classic_learned] of a (key, txid) agrees with its first learn
       ({!Mdcc_core.History.contradictions});}
    {- {b cross-partition-atomicity} — atomic visibility attributed to
       hash-partition groups: a transaction whose write-set spans two or
       more partitions must not commit in one group while voided in
       another, nor leak an execution into any group after an abort (inert
       when [partition_of] maps every key to one group);}
    {- {b read-committed} — every version a committed transaction read
       (the [vread] of its physical/guard updates) is a version that
       actually existed: installed by some committed option, or the initial
       load;}
    {- {b serializability} — the conflict graph of committed {e classic}
       transactions (those whose updates all carry read versions: physical
       updates, deletes, read guards — no commutative deltas) is acyclic,
       using the per-key version order for write-write, write-read and
       read-write (anti-dependency) edges;}
    {- {b demarcation} — every committed state a replica passed through
       satisfies the schema's value constraints ([stock >= 0] at every
       acceptor-visible state, §3.4.2).}}

    The checker is pure: it never looks at live cluster state, so it can be
    run on histories from any source — including the hand-written known-bad
    histories in [test/t_chaos.ml]. *)

open Mdcc_storage

type violation = { invariant : string; detail : string }

val check :
  ?bounds:(Key.t -> Schema.bound list) ->
  ?partition_of:(Key.t -> int) ->
  Mdcc_core.History.t ->
  violation list
(** All violations found, in invariant order.  [bounds] supplies the value
    constraints for the demarcation check (default: none); [partition_of]
    is the deployment's key-to-partition hash for the cross-partition
    check (default: everything in one group, which disables it). *)

val violation_to_string : violation -> string
