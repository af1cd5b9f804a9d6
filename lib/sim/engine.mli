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

type stamp = { mutable time : sim_time }
(** A cell holding one simulated instant.  Its only field is a float, so
    the cell is flat: writing or reading it boxes nothing, where a [float]
    returned from another module, {!now}'s included, is boxed. *)

val now_into : t -> stamp -> unit
(** [now_into t c] stores {!now} in [c], copying the clock cell to [c]
    without a box. *)

val rng : t -> Mdcc_util.Rng.t
(** The engine's root RNG.  Components should [Rng.split] it at set-up time
    so their streams are independent of scheduling order. *)

val schedule : t -> after:float -> (unit -> unit) -> handle
(** [schedule t ~after f] runs [f] at [now t +. after] (clamped to now). *)

val schedule_at : t -> at:float -> (unit -> unit) -> handle
(** Absolute-time variant of {!schedule}. *)

val every : t -> period:float -> (unit -> unit) -> unit
(** [every t ~period f] runs [f] at [now t +. period] and then every
    [period] ms, for the life of the engine.  Each tick runs [f] and then
    re-arms, taking its [seq] and time exactly as a thunk ending in
    [schedule t ~after:period] would, so ties at equal instants order as
    under that self-re-arming chain.  The tick re-inserts one event record
    built here, so it allocates nothing of its own.  A [period] that is not
    [> 0] (NaN included) would fire forever at one instant: it raises
    {!Mdcc_util.Invariant.Violation}. *)

type alarm
(** A one-shot timer that can be armed again once it has fired. *)

val alarm : (unit -> unit) -> alarm
(** [alarm f] is an alarm that runs [f] each time it fires; it is not
    armed. *)

val arm : t -> alarm -> after:float -> unit
(** [arm t a ~after] makes [a] fire once, [after] ms from now (clamped
    like {!schedule}), taking its [seq] and time exactly as
    [schedule t ~after f] would, so it orders against every other event as
    that call's event would.  The alarm's one event record goes back into
    the heap, so arming allocates nothing.  Arming an alarm that has not
    fired yet raises {!Mdcc_util.Invariant.Violation}. *)

type delivery =
  src:int -> dst:int -> bytes:int -> Event_queue.payload -> string option -> unit
(** What the engine calls when a message posted with {!post} comes due:
    its endpoints, its metered size, its payload and the sender's trace
    context. *)

val set_delivery : t -> delivery -> unit
(** Register the engine's one delivery function.  {!Network.create} does
    this, which is why an engine carries at most one network: a second
    registration raises [Invalid_argument]. *)

val post :
  t ->
  Event_queue.fcell ->
  src:int ->
  dst:int ->
  bytes:int ->
  Event_queue.payload ->
  string option ->
  unit
(** [post t delay ~src ~dst ~bytes payload ctx] delivers a message
    [delay.f] ms from now (clamped like {!schedule}), ordered against
    timers by the same [(time, seq)] rule.  The message travels as a
    pooled {!Event_queue.Msg} record, not a closure: the engine takes one
    from its free stack, and when the message comes due it copies the
    fields out, clears the record, returns it to the stack and only then
    calls the delivery function — so a handler may send (reusing the
    record) or raise.  Once the pool has grown to the peak number in
    flight, a post allocates nothing; the delay is read from a cell so no
    boxed float crosses into the engine.  Messages cannot be cancelled. *)

val cancel : t -> handle -> unit
(** Cancel a pending event; a no-op if it already fired or was already
    cancelled.  Cancel-heavy runs stay compact: the queue drops dead
    entries once they outnumber live ones. *)

val pending : t -> int
(** Number of live events still queued: timers not yet fired or
    cancelled, and messages in flight. *)

val next_at : t -> float
(** When the earliest queued event is due ([infinity] if none), read
    without dispatching anything.  Right after {!run} it is the time of
    the next live event; a later {!cancel} can only make it early. *)

val run : ?until:float -> t -> unit
(** Process events in timestamp order until the heap is empty, or until the
    next event would fire strictly after [until].  The clock is left at the
    time of the last executed event (or at [until] if given). *)

val advance : t -> until:float -> unit
(** [run ~until] without the profiler span, so a driver that calls it once
    per iteration allocates no closure or option for it. *)

val step : t -> bool
(** Execute exactly one event; [false] if the heap was empty. *)
