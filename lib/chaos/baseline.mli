(** The comparison protocols (§5.2) through the history checker.

    Quorum writes, 2PC and Megastore* are driven by the same contended
    stock workload the MDCC chaos runs use, with the history recorded at
    the {!Mdcc_protocols.Harness} boundary ([Submitted] at hand-off,
    [Decided] at the outcome callback).  Write-sets and outcomes alone are
    enough for the checker's lost-update and serializability invariants;
    the replica-level invariants need [Applied] events and are vacuous
    here.

    Each protocol carries an expectation: the invariants it is {e required}
    to violate and those it is {e allowed} to.  Quorum writes is the
    deliberate canary — blind last-writer-wins that cannot abort — so the
    checker must flag lost updates on its runs; 2PC and Megastore* must
    come back clean.  A QW run with no lost-update flag fails the sweep
    just as loudly as a dirty 2PC run: it means the checker lost its
    teeth. *)

type proto
(** A baseline protocol plus its violation expectations. *)

val protocols : proto list
(** The sweep set: [qw-3] (required: lost-update), [2pc] (clean),
    [megastore] (clean). *)

val proto_name : proto -> string

val protocol_named : string -> proto option

type report = {
  b_protocol : string;
  b_seed : int;
  b_submitted : int;
  b_committed : int;
  b_aborted : int;
  b_undecided : int;
  b_required : string list;  (** invariants that must appear in violations *)
  b_allowed : string list;  (** invariants that may appear in violations *)
  b_violations : Checker.violation list;
}

val ok : report -> bool
(** Every required invariant fired, and nothing outside the allowed set
    did. *)

val run :
  ?txns:int ->
  ?items:int ->
  seed:int ->
  proto ->
  report
(** One seeded, fault-free run: even items take commutative decrements,
    odd items take contended read-modify-writes submitted in same-instant
    pairs from two DCs (both writers read the same version — the
    lost-update crucible), over {!Runner}'s stock fixture, horizon and
    drain.  Ends with the checker plus {!Runner.post_drain_checks}
    (liveness, cross-DC convergence, delta accounting). *)

val report_to_string : report -> string
