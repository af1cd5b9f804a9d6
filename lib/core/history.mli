(** Execution-history recording for chaos testing: the checker's fold over
    the event stream.

    A history is a flat, chronological log of everything the safety checker
    needs to decide whether an execution was correct: what each transaction
    proposed (its write-set carries the read versions as the [vread] of every
    physical/guard update), what the coordinator decided, which replicas
    executed or voided each option (and the committed value/version that
    resulted), and which faults the nemesis injected along the way — the
    events {!Event.in_history} selects.  Beside the log, it keeps the
    first learned value of every option (a coordinator's [Learned], a
    master's [Classic_learned]) and notes each later learn that
    contradicts it.

    Recording is entirely passive — it never draws randomness or schedules
    events — so wiring a recorder into a cluster does not perturb the
    simulated execution: a run with a recorder is event-for-event identical
    to the same seed without one. *)

type entry = {
  at : float;  (** when the event was emitted *)
  node : int;  (** the emitting node; [-1] outside any node *)
  event : Event.t;
}

type contradiction = {
  c_txid : Mdcc_storage.Txn.id;
  c_key : Mdcc_storage.Key.t;
  c_first : entry;  (** the option's first learn *)
  c_second : entry;  (** a later learn of the other decision *)
}

type t

val create : unit -> t

val record : t -> at:float -> node:int -> Event.t -> unit
(** Append the event if {!Event.in_history} keeps it.  A learn is checked
    against the option's first learn instead; any other event is a
    no-op. *)

val events : t -> entry list
(** All recorded entries, in recording (chronological) order. *)

val iter_newest_first : (entry -> unit) -> t -> unit
(** [f] on every recorded entry, newest first; unlike {!events}, builds no
    list. *)

val length : t -> int

val contradictions : t -> contradiction list
(** Every learn that contradicted its option's first learn, in recording
    order. *)
