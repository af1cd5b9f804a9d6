(** The protocol's event stream: one typed value per protocol step —
    proposal, vote, learn, decision, visibility, recovery, repair — emitted
    once through {!Ctx.emit}.  Its consumers are three folds: the checker's
    {!History} keeps what {!in_history} selects, the span store gets
    {!record_span}'s events, and the trace-line sink gets {!trace}'s lines.
    Constructors carry raw values, never rendered strings: only a live
    consumer renders a key or an outcome.  Which step shows up as which
    span, which line, and whether it enters the history is decided here
    alone (docs/OBSERVABILITY.md has the catalogue).  Registry counters and
    [Prof] stay outside the stream. *)

open Mdcc_storage

(** An acceptor's vote on an option. *)
type vote =
  | Fast of Acceptor.reject_reason option
      (** on the fast ballot, with the reason it rejected, if it did *)
  | Classic of Woption.decision  (** in a classic round, the master's decision *)

type t =
  | Submitted of Txn.t  (** a coordinator started the commit protocol *)
  | Proposed of { txid : Txn.id; key : Key.t; route : [ `Fast | `Classic ] }
      (** a coordinator settled an option's route *)
  | Voted of { txid : Txn.id; key : Key.t; vote : vote }  (** an acceptor voted *)
  | Collided of { txid : Txn.id; key : Key.t; acks : int; rejects : int }
      (** the fast votes on a key can no longer reach a fast quorum *)
  | Collision_resolved of { txid : Txn.id; key : Key.t }
      (** a collided key has been learned *)
  | Redirected of { txid : Txn.id; key : Key.t; master : int }
      (** a coordinator re-sent the option to the key's master, as an
          acceptor's redirect asked *)
  | Recovery_started of { txid : Txn.id; key : Key.t; target : int }
      (** a coordinator asked [target] to recover a key *)
  | Learned of { txid : Txn.id; key : Key.t; decision : Woption.decision }
      (** a coordinator learned an option's outcome *)
  | Decided of { txid : Txn.id; outcome : Txn.outcome }
      (** a coordinator decided the transaction *)
  | Applied of { txid : Txn.id; key : Key.t; version : int; value : Value.t; wrote : bool }
      (** a replica executed a committed option; [version]/[value] is the
          committed row afterwards, and [wrote] is false when the row did
          not change (a read guard, or a rebase already folded the option
          in) *)
  | Voided of { txid : Txn.id; key : Key.t }  (** a replica voided an aborted option *)
  | Repaired of { txid : Txn.id; key : Key.t; src : int; version : int; value : Value.t }
      (** anti-entropy replayed a committed delta learned from node [src] *)
  | Classic_learned of { txid : Txn.id; key : Key.t; decision : Woption.decision }
      (** a master's classic round reached a quorum *)
  | Master_recovery_started of { key : Key.t; ballot : int }
      (** a master started Phase 1 on a record *)
  | Master_recovery_resolved of { key : Key.t; options : int; forced : int; free : int }
      (** a master decided every option Phase 1 found, [forced] by earlier
          votes and [free] by validation *)
  | Txn_recovery_started of { txid : Txn.id; keys : int }
      (** a node started finishing a dangling transaction *)
  | Txn_recovery_finished of { txid : Txn.id; committed : bool }
  | Diverged of { peer : int; key : Key.t; version : int }
      (** anti-entropy found equal versions with different applied sets *)
  | Unknown_update of { txid : Txn.id; key : Key.t }
      (** a committed Visibility without the option's update: catch up from
          the master instead *)
  | Fault of string  (** the nemesis injected the labelled fault *)
  | Violation of Mdcc_util.Invariant.t  (** a protocol invariant died *)

val in_history : t -> bool
(** Whether the checker's history keeps the event: submissions, decisions,
    replica writes ([Applied] with [wrote], [Repaired]), voids, faults and
    violations. *)

val span_names : string list
(** Every span event name {!record_span} uses. *)

val outcome_string : Txn.outcome -> string
(** The outcome as {!Txn.pp_outcome} renders it, without formatting:
    one constant string per outcome. *)

val fast_verdict : Acceptor.reject_reason option -> string
(** A fast vote's verdict: ["acc"] or ["rej:<reason>"]. *)

val vote_detail : vote -> string
(** A vote's span detail: ["fast "] then {!fast_verdict}, or
    ["classic acc"]/["classic rej"]; one constant string per vote. *)

type span_sink
(** A span store and the label of every key it has seen: a key's string
    is rendered on its first span event and shared by the rest. *)

val span_sink : Mdcc_obs.Span.t -> span_sink

val record_span : span_sink -> at:float -> node:int -> t -> unit
(** The span fold: open the transaction's span on [Submitted], append the
    event's span event (if it has one) attributed to [node]. *)

val trace : Runtime.t -> node:int -> t -> unit
(** The trace-line fold: render the event's line (if it has one), tagged
    [app<node>] for coordinator steps and [node<node>] for acceptor steps,
    through {!Runtime.trace}. *)
