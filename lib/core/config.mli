(** Protocol configuration: the knobs the paper's evaluation turns.

    The protocol runs in one of two modes:
    {ul
    {- [Full] — fast ballots plus commutative options with quorum
       demarcation;}
    {- [Multi] — every instance is classic, owned by a per-record master
       (Multi-Paxos; a stable master skips Phase 1).}}
    The paper's "Fast" configuration is [Full] fed physical updates only
    (see [Mdcc_workload.Setup]). *)

type mode = Full | Multi

type t = {
  mode : mode;
  replication : int;  (** replicas per record = number of data centers *)
  gamma : int;
      (** instances forced classic after a collision before fast is retried
          (γ, default 100; §3.3.2) *)
  learn_timeout : float;
      (** ms the coordinator waits for an option before triggering collision
          recovery at the master *)
  txn_timeout : float;
      (** ms after which a storage node treats an undecided pending option as
          a dangling transaction and starts recovery (§3.2.3) *)
  dangling_scan_every : float;  (** period of the dangling-transaction scan *)
  fast_quorum_override : int option;
      (** {b testing only}: force {!fast_quorum} to this size instead of the
          safe [ceil(3n/4)].  Exists so the chaos checker can demonstrate it
          catches real protocol bugs — an undersized fast quorum (e.g. 3 of
          5) breaks the Fast Paxos intersection requirement and must show up
          as a safety violation.  Never set this in a real deployment. *)
}

val make :
  ?mode:mode ->
  ?gamma:int ->
  ?learn_timeout:float ->
  ?txn_timeout:float ->
  ?dangling_scan_every:float ->
  ?fast_quorum_override:int ->
  replication:int ->
  unit ->
  t

val classic_quorum : t -> int
(** [floor(n/2) + 1]; 3 for the paper's 5 data centers. *)

val fast_quorum : t -> int
(** 4 for the paper's 5 data centers. *)

val mode_name : mode -> string
