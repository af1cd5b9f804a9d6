(** The runtime a protocol component runs on.

    The MDCC state machines ({!Coordinator}, {!Storage_node}, and the
    {!Session} layer above them) never talk to a clock, a scheduler or a
    transport directly: they go through this interface.  Two
    implementations exist —

    {ul
    {- {!of_network}: the discrete-event simulator ([lib/sim]), where time
       is virtual, delivery order is deterministic and executions are
       replayable.  This is the {e verification} substrate: every chaos
       run, experiment and pinned test drives the state machines through
       it.}
    {- [Mdcc_runtime_unix]: real OS sockets and domains around the
       simulator's own engine, whose clock follows the wall clock — the
       {e deployment} substrate the wire front-end serves traffic from.}}

    The determinism contract (R1–R4, docs/LINT.md) is what makes this
    split safe: because the state machines contain no ambient time,
    randomness or I/O, the very same code is chaos-checked under the
    simulator and served under the socket runtime. *)

type timer
(** A cancellable pending timer (a protocol timeout). *)

val no_timer : timer
(** A timer never armed: cancelling it does nothing.  It stands for a
    timeout not set yet, so a holder needs no option. *)

type alarm
(** A one-shot timer that is armed again after it fires (the epoch of
    {!Storage_node}'s deferred Phase 2a messages). *)

type t

val make :
  now:(unit -> float) ->
  send:(src:int -> dst:int -> Mdcc_sim.Network.payload -> unit) ->
  register:(int -> (src:int -> Mdcc_sim.Network.payload -> unit) -> unit) ->
  set_timer:(after:float -> (unit -> unit) -> (unit -> unit)) ->
  spawn:((unit -> unit) -> unit) ->
  rng:Mdcc_util.Rng.t ->
  dc_of:(int -> int) ->
  trace:(tag:string -> string -> unit) ->
  tracing:(unit -> bool) ->
  unit ->
  t
(** Assemble a runtime from its primitives.  [set_timer ~after f] must run
    [f] once, [after] milliseconds from now, and return the cancel thunk;
    the runtime's {!every} is derived from it, as a thunk that runs its
    callback and then calls [set_timer ~after:period] on itself again,
    and so is its {!type-alarm}, which calls [set_timer ~after f] at each
    arming and orders against other events as that timer would; its
    {!now_into} is derived from [now], as a store of [now ()];
    [spawn f] must run [f] asynchronously but promptly (the "later, not
    reentrantly" primitive used for completion callbacks); [rng] is the
    runtime's root RNG, split once per component at create time; [trace]
    receives the rendered line; [tracing] reports whether anybody is
    listening — {!val-trace} consults it {e before} formatting, so it must
    be cheap and must return [true] whenever [trace] would record. *)

val now : t -> float
(** The runtime's clock, in milliseconds.  Virtual under the simulator,
    monotonic-process time under the socket runtime — never the wall
    clock of rule R1. *)

val now_into : t -> Mdcc_sim.Engine.stamp -> unit
(** [now_into t c] stores {!now} in [c].  Under {!of_network} it copies
    the engine's clock cell ({!Mdcc_sim.Engine.now_into}), so it
    allocates nothing where {!now}'s result is a boxed float; a runtime
    built with {!make} stores its [now ()]. *)

val send : t -> src:int -> dst:int -> Mdcc_sim.Network.payload -> unit
(** Queue a message for asynchronous delivery to node [dst].  Delivery (if
    it happens at all — real networks drop) runs the destination's
    registered handler with the sender's causal trace context restored. *)

val register : t -> int -> (src:int -> Mdcc_sim.Network.payload -> unit) -> unit
(** Install the message handler of a node id.  Re-registering replaces the
    handler (a node restarting with fresh state). *)

val set_timer : t -> after:float -> (unit -> unit) -> timer
(** [set_timer t ~after f] runs [f] once, [after] milliseconds from now. *)

val alarm : t -> (unit -> unit) -> alarm
(** [alarm t f] is a new alarm that runs [f]; it is not armed. *)

val arm : alarm -> after:float -> unit
(** [arm a ~after] makes [a] fire once, [after] milliseconds from now.
    Arm an alarm only when it is not armed: it fires once per arming.
    Under {!of_network} an arming re-inserts the alarm's one engine event
    ({!Mdcc_sim.Engine.arm}) and allocates nothing; a runtime built with
    {!make} sets a timer through its [set_timer]. *)

val every : t -> period:float -> (unit -> unit) -> unit
(** [every t ~period f] runs [f] [period] milliseconds from now and then
    every [period] ms, for the life of the runtime; it cannot be
    cancelled.  Each tick runs [f] and then re-arms, so it takes its place
    among timers due at the same instant exactly as a thunk ending in
    [set_timer t ~after:period] on itself would.  Under {!of_network} a
    tick re-inserts one engine event ({!Mdcc_sim.Engine.every}) and
    allocates nothing of its own; a runtime built with {!make} re-arms
    through its [set_timer].  A [period] that is not [> 0] (NaN included)
    raises {!Mdcc_util.Invariant.Violation}. *)

val cancel_timer : t -> timer -> unit
(** Cancel a pending timer; a no-op if it already fired or was cancelled. *)

val spawn : t -> (unit -> unit) -> unit
(** Run a thunk asynchronously, as soon as possible.  Used to keep
    user-facing callbacks off the caller's stack. *)

val rng : t -> Mdcc_util.Rng.t
(** The runtime's root RNG.  Components [Rng.split] it at set-up time so
    their streams are independent of scheduling order. *)

val dc_of : t -> int -> int
(** Data center of a node id (replica locality for local reads). *)

val tracing : t -> bool
(** Whether any trace consumer is listening.  The protocol nodes do not
    call {!val-trace} themselves: their steps are {!Event.t}s, and
    {!Ctx.live} asks this (among the other consumers) before an event is
    built, so a key rendering or formatted outcome costs nothing while
    nobody listens. *)

val trace : t -> tag:string -> ('a, unit, string, unit) format4 -> 'a
(** Emit a protocol trace line attributed to [tag] at the runtime's
    current time.  When no consumer is listening the arguments are
    consumed without formatting ({!Printf.ikfprintf}), so a disabled
    trace point allocates nothing. *)

val of_network : ?trace:(string -> unit) -> Mdcc_sim.Network.t -> t
(** The simulator runtime: timers are engine events, [send] is simulated
    wide-area delivery with latency, jitter, drops and failures, [now] is
    virtual time, [spawn] is a zero-delay event, {!every} is
    {!Mdcc_sim.Engine.every} and an alarm is an {!Mdcc_sim.Engine.alarm}.
    With [trace], {!tracing} is [true] and every trace line reaches the
    sink rendered as [[%10.2f] %-12s %s] (engine clock, tag, message);
    without it, {!tracing} is [false] for the runtime's life. *)
