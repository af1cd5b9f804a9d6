(** The real-time runtime: a select-based event loop over OS sockets.

    One loop runs on one domain and executes {e all} protocol state-machine
    callbacks — message deliveries, timers, spawned thunks — sequentially,
    preserving the single-threaded execution discipline the state machines
    were verified under in the simulator.  Sibling domains (signal
    handlers, load-generator threads, a supervising CLI) talk to the loop
    only through {!post} and {!request_stop}, both cross-domain safe.

    The loop schedules with the simulator's own {!Mdcc_sim.Engine}: timers,
    spawned thunks and node-to-node messages wait on one heap ordered by
    (time, insertion), whose clock {!poll} advances to the wall clock.
    Node-to-node messages stay in-process: {!Mdcc_core.Runtime.send} posts
    a zero-delay engine message (asynchronous, never reentrant), with the
    sender's causal trace context captured and restored exactly as the
    simulated network does.  The sockets carry {e client} traffic — the
    memcached-style wire protocol of [Mdcc_wire] — via listeners,
    per-connection read callbacks, and per-connection write queues flushed
    as the peer drains them. *)

type t

val create : ?seed:int -> ?dc_of:(int -> int) -> unit -> t
(** [seed] (default 1) feeds the runtime's root {!Mdcc_util.Rng}; [dc_of]
    (default [fun _ -> 0]) gives replica locality to the coordinator's
    local reads. *)

val runtime : t -> Mdcc_core.Runtime.t
(** The {!Mdcc_core.Runtime} interface of this loop: [now] is process
    time in milliseconds; a timer is an engine event at its absolute
    deadline on that clock, cancelled with {!Mdcc_sim.Engine.cancel}; a
    spawn is a zero-delay engine event; a send is a pooled engine message
    with no delay.  All of them run from {!poll}, on the loop's domain,
    never inside the call that scheduled them.  It never traces:
    [Runtime.tracing] is [false]. *)

val now : t -> float
(** Milliseconds since {!create} (the runtime's clock). *)

type meter = {
  w_size : Mdcc_sim.Network.payload -> int;
  w_on_send : src:int -> dst:int -> bytes:int -> unit;
  w_on_deliver : src:int -> dst:int -> bytes:int -> unit;
}
(** Observability hook mirroring {!Mdcc_sim.Network.meter}: the size
    estimator is supplied by the protocol layer ([Messages.size_of]), so
    byte accounting has a single source of truth across both runtimes. *)

val set_meter : t -> meter -> unit

(** {1 Connections} *)

type conn

type conn_handlers = {
  on_data : bytes -> int -> int -> unit;
      (** [on_data buf off len]: bytes read from the peer.  The buffer is
          the loop's scratch buffer — consume or copy before returning. *)
  on_close : unit -> unit;  (** peer closed, or {!close} completed *)
}

val listen :
  t -> ?addr:string -> port:int -> (conn -> conn_handlers) -> int
(** Open a listening TCP socket ([addr] defaults to 127.0.0.1, backlog
    64) and return the bound port (useful with [port:0] for an ephemeral
    port).  When the socket cannot be bound or listened on, it is closed
    and the [Unix.Unix_error] re-raised. *)

val close_listeners : t -> unit
(** Stop accepting new connections (first step of a graceful drain);
    established connections are untouched. *)

val write : conn -> string -> unit
(** Queue bytes for the peer; flushed eagerly when the socket allows and
    from the loop as it becomes writable.  Silently dropped on a closed
    connection (the peer is gone; the protocol has no one to answer). *)

val close : conn -> unit
(** Flush the pending write queue, then close. *)

val open_conns : t -> int

val buffered_bytes : t -> int
(** Total unflushed bytes across connections (drain predicate input). *)

val max_conn_buffered : t -> int
(** Largest single connection write-queue depth, in bytes (the
    [metrics] gauge for per-connection backpressure). *)

val timers_pending : t -> int
(** Live events on the loop's engine heap (the [metrics] occupancy
    gauge): timers not yet fired or cancelled, and any spawn or node
    message not yet run.  A cancelled timer stops counting at once. *)

(** {1 Driving the loop} *)

val post : t -> (unit -> unit) -> unit
(** Enqueue a thunk from any domain; wakes the loop if it is sleeping in
    select.  The thunk runs on the loop domain. *)

val request_stop : t -> unit
(** Ask {!run} to return after the current iteration.  Async-signal and
    cross-domain safe (an atomic flag plus a self-pipe wake-up). *)

val stop_requested : t -> bool

val poll : t -> max_wait_ms:float -> unit
(** One loop iteration: move {!post}ed thunks into the engine as
    zero-delay events, run every engine event due by the wall clock (a
    message or spawn an event sends on runs in the same iteration), then
    select on listeners/connections for at most [max_wait_ms], clipped to
    the engine's next event time (0 returns immediately).  With the
    profiler off it allocates only the lists select takes and returns.
    Exposed for tests and custom drivers. *)

val run : t -> unit
(** Iterate {!poll} until {!request_stop}. *)
