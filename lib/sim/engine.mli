(** The discrete-event simulation engine: a virtual clock plus an event heap.

    All protocol code in this repository is written against this engine
    instead of wall-clock time and OS threads.  Time is a [float] in
    milliseconds.  Executions are deterministic: the only source of
    randomness is the engine's seeded {!Mdcc_util.Rng.t}, and simultaneous
    events fire in scheduling order. *)

type t

type sim_time = float
(** A point on the {e simulated} clock, in milliseconds.  Protocol state
    that stores a timestamp must use this alias rather than bare [float]:
    `mdcc_lint` rule R1 statically asserts that [*_at] record fields in
    the protocol core are typed [sim_time], which makes "fed from the
    engine clock, never the wall clock" checkable at build time. *)

type handle
(** A cancellable scheduled event (used to implement protocol timeouts). *)

val create : seed:int -> t
(** Fresh engine with virtual time 0 and an RNG derived from [seed]. *)

val now : t -> sim_time
(** Current virtual time in milliseconds. *)

val rng : t -> Mdcc_util.Rng.t
(** The engine's root RNG.  Components should [Rng.split] it at set-up time
    so their streams are independent of scheduling order. *)

val schedule : t -> after:float -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t +. after] (clamped to now). *)

val schedule_at : t -> at:float -> (unit -> unit) -> handle
(** Absolute-time variant of {!schedule}. *)

val schedule_in : t -> Event_queue.fcell -> (unit -> unit) -> handle
(** [schedule_in t delay f] is [schedule t ~after:delay.f f] for callers
    that schedule per message: the delay is read from a caller-owned cell,
    so no boxed float crosses into the engine. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; a no-op if it already fired or was already
    cancelled.  Cancel-heavy runs stay compact: the queue drops dead
    entries once they outnumber live ones. *)

val pending : t -> int
(** Number of events still queued (upper bound; includes cancelled ones). *)

val run : ?until:float -> t -> unit
(** Process events in timestamp order until the heap is empty, or until the
    next event would fire strictly after [until].  The clock is left at the
    time of the last executed event (or at [until] if given). *)

val step : t -> bool
(** Execute exactly one event; [false] if the heap was empty. *)
