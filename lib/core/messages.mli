(** The MDCC wire protocol.

    Constructors extend the simulator's {!Mdcc_sim.Network.payload} so every
    MDCC component shares the cluster's network.  The message set follows
    Algorithms 1–3 of the paper, plus the recovery and catch-up traffic the
    prose describes (§3.2.3, §4.2):

    {ul
    {- [Propose] — app-server to acceptors (fast route) or to the record's
       master (classic route);}
    {- [Phase1a]/[Phase1b] — master establishing a classic ballot;}
    {- [Phase2a]/[Phase2b_master] — master-ordered classic acceptance;}
    {- [Phase2b_fast] — acceptor's direct answer to a fast proposal, sent
       straight to the learning app-server (master bypass).  It names the
       option voted on, whose transaction id and key identify it (only they
       count towards its size), and the vote counts for the message's
       sender;}
    {- [Learned] — master informing the app-server of a classic outcome;}
    {- [Redirect] — acceptor telling a fast proposer the record currently
       runs classic ballots (fast-policy γ window) and who the master is;}
    {- [Visibility] — app-server executing / voiding a learned option; it
       names the option, of which its transaction id, key and update count
       towards its size.  Sent back to the app-server by a replica asked
       about an option whose transaction it already saw decided, it
       reports that outcome instead of a vote;}
    {- [Start_recovery] — anybody asking a master to resolve a collision;}
    {- [Status_query]/[Status_reply] — dangling-transaction recovery reading
       a quorum of option logs;}
    {- [Catchup_request]/[Catchup] — straggler replica anti-entropy.}} *)

open Mdcc_storage
open Mdcc_paxos

type rebase = {
  value : Value.t;
  version : int;
  exists : bool;
  included : Update.t Txn.Map.t;
}
(** Committed state shipped by a master to re-base stragglers / reset the
    commutative base value after a demarcation collision (§3.4.2).
    [included] is the watermark of transactions folded into [value], mapped
    to the update each contributed (the sender's applied set): the receiver marks them visible so a
    late Visibility delivery cannot re-apply them (commutative deltas carry
    no version guard, so state transfer without the watermark would
    double-count them), and keeps the updates so it can later offer them to
    a diverged peer in a [Sync_reply]. *)

type vote = { woption : Woption.t; decision : Woption.decision; ballot : Ballot.t }
(** One pending acceptance reported in Phase1b or to recovery. *)

type promise = {
  votes : vote list;  (** every pending option the acceptor holds for the key *)
  rebase : rebase;  (** its committed state *)
  decided : (Txn.id * bool) list;
      (** the visibility outcomes it knows for the key beyond
          [rebase.included], whose every txid is known committed: final
          decisions a recovery must confirm, never contradict (the
          executed/voided option no longer appears in [votes]).  The two
          are disjoint. *)
}
(** What an acceptor reports in Phase1b: all a recovering master needs to
    re-base the record and decide every option safely. *)

type status =
  | Status_unknown  (** no trace of the transaction at this replica *)
  | Status_pending of vote
  | Status_decided of bool  (** visibility already executed: committed? *)

type Mdcc_sim.Network.payload +=
  | Propose of { woption : Woption.t; route : [ `Fast | `Classic ] }
  | Phase1a of { key : Key.t; ballot : Ballot.t }
  | Phase1b of {
      key : Key.t;
      ballot : Ballot.t;
      ok : bool;  (** false: nack, [promised] is higher *)
      promised : Ballot.t;
      promise : promise;
    }
  | Phase2a of {
      key : Key.t;
      ballot : Ballot.t;
      woption : Woption.t;
      decision : Woption.decision;
      classic_until : int;  (** fast-policy window the master imposes *)
      rebase : rebase option;
    }
  | Phase2b_master of {
      key : Key.t;
      txid : Txn.id;
      ballot : Ballot.t;
      ok : bool;
    }
  | Phase2b_fast of { woption : Woption.t; decision : Woption.decision }
  | Learned of { key : Key.t; txid : Txn.id; decision : Woption.decision }
  | Redirect of { key : Key.t; txid : Txn.id; master : int; classic_until : int }
  | Visibility of { woption : Woption.t; committed : bool }
  | Start_recovery of { key : Key.t; woption : Woption.t }
  | Status_query of { txid : Txn.id; key : Key.t }
  | Status_reply of { txid : Txn.id; key : Key.t; status : status; acceptor : int }
  | Catchup_request of { key : Key.t }
  | Catchup of { key : Key.t; rebase : rebase }
  | Read_request of { rid : int; key : Key.t }
      (** read of the committed state of one replica (reads never touch the
          protocol; a single-replica read is the paper's default, possibly
          stale, read-committed read) *)
  | Read_reply of { rid : int; key : Key.t; value : Value.t; version : int; exists : bool }
  | Batch of Mdcc_sim.Network.payload list
      (** several protocol messages for the same destination folded into one
          network message, handled in list order — the batching
          optimization the paper's conclusion proposes to reduce message
          overhead.  {!Outbox} builds them. *)
  | Sync_request of { entries : (Key.t * int * int) list }
      (** anti-entropy probe: "here are my (version, applied-set digest)
          pairs for these keys; send me a [Catchup] for any you know to be
          newer" — the background bulk-repair process §3.2.3/§5.3.4 mention
          for replicas that missed updates during an outage.  The digest
          (see {!applied_digest}) lets the receiver detect two replicas at
          the same version with different applied delta sets — the
          equal-version divergence commutative updates can produce — and
          answer with its own applied set in a [Sync_reply] so both sides
          converge on the union *)
  | Sync_reply of { key : Key.t; version : int; applied : Update.t Txn.Map.t }
      (** anti-entropy repair: the responder's full applied set for one
          diverged key.  The receiver replays every committed commutative
          option it has not itself applied (txid-membership guarded, so the
          exchange is idempotent) and answers with its merged set if the
          sender is still missing entries — after at most one reply each
          way both replicas hold the union *)
  | Scan_request of { rid : int; table : string; order_by : string option; limit : int }
      (** Nothing in [lib/] sends or reads this message, and receivers
          ignore it: it stays only because [bench/e2e]'s per-layer table
          still names it, and the next change to the benchmark deletes it. *)
  | Scan_reply of { rid : int; rows : (Key.t * Value.t * int) list }
      (** Like [Scan_request]: unused in [lib/], kept for [bench/e2e]
          until the next change to the benchmark deletes it. *)

val applied_digest : 'a Txn.Map.t -> int
(** Digest of the transaction ids of an applied set (the keys of the map;
    the updates are ignored), exchanged in [Sync_request] entries.  Equal
    versions with different digests mean diverged replicas. *)

val size_of : Mdcc_sim.Network.payload -> int
(** Estimated wire size in bytes, used by the network meter to charge
    per-node byte counters.  A coarse model — fixed header plus the
    dominant variable-length parts — not a serialization.  Allocates
    nothing. *)
