(** Simulated wide-area message passing.

    Messages between nodes are delivered by scheduling an engine event after
    the topology's base one-way latency plus lognormal jitter.  The network
    can drop messages at random, and whole nodes or data centers can be
    failed (their inbound {e and} outbound traffic is discarded) — that is
    exactly how the paper simulates a data-center outage ("we prevented the
    data center from receiving any messages", §5.3.4).

    Message payloads use the extensible variant {!payload}, so every protocol
    library declares its own constructors while sharing one network. *)

type payload = Event_queue.payload = ..
(** Extend with your protocol's message type:
    [type Network.payload += Ping of int].  The type is
    {!Event_queue.payload}, re-exported: a message in flight is a pooled
    event-heap record that carries its payload as data. *)

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;  (** lost to failures or random drops *)
}

type meter = {
  m_size : payload -> int;
      (** estimated wire size of a payload, bytes *)
  m_on_send : src:Topology.node_id -> dst:Topology.node_id -> bytes:int -> unit;
  m_on_deliver : src:Topology.node_id -> dst:Topology.node_id -> bytes:int -> unit;
}
(** Observability hook: called on every send attempt (before drop checks)
    and on every actual delivery.  The network knows nothing about payload
    contents, so the size estimator is supplied by the protocol layer. *)

type t

val create :
  Engine.t -> Topology.t -> ?drop_probability:float -> ?jitter_sigma:float -> unit -> t
(** [create engine topo] builds a network.  [drop_probability] (default 0)
    applies to every message independently.  [jitter_sigma] (default 0.05)
    is the sigma of the multiplicative lognormal latency jitter; 0 disables
    jitter entirely.

    The network registers its delivery function with the engine
    ({!Engine.set_delivery}), and {!send} hands each message to
    {!Engine.post} as data — its endpoints, metered size, payload and
    trace context in a pooled heap record, with no closure per message.
    An engine therefore carries one network: a second [create] on the
    same engine raises [Invalid_argument]. *)

val engine : t -> Engine.t
val topology : t -> Topology.t

val register : t -> Topology.node_id -> (src:Topology.node_id -> payload -> unit) -> unit
(** Install the message handler of a node.  Re-registering replaces the
    handler (used by tests to model a node restarting with fresh state). *)

val send : t -> src:Topology.node_id -> dst:Topology.node_id -> payload -> unit
(** Queue a message for delivery.  Delivery is skipped silently if either
    endpoint is failed (at send {e or} delivery time), the message is
    dropped, or [dst] has no handler.  Once the engine's pool of message
    records covers the peak number in flight, a send and its delivery
    allocate nothing (the meter and handler aside). *)

val fail_node : t -> Topology.node_id -> unit
val recover_node : t -> Topology.node_id -> unit

val fail_dc : t -> int -> unit
(** Fail every node of a data center. *)

val recover_dc : t -> int -> unit

val cut_link : t -> src:Topology.node_id -> dst:Topology.node_id -> unit
(** Cut the {e directed} link [src -> dst]: messages from [src] to [dst] are
    dropped (at send or delivery time) until {!heal_link}.  Cutting only one
    direction yields the asymmetric partitions that [fail_node]/[fail_dc]
    cannot express — a node that can send but not receive, or vice versa. *)

val heal_link : t -> src:Topology.node_id -> dst:Topology.node_id -> unit

val set_drop_probability : t -> float -> unit
(** Change the random-drop probability of a {e live} network (the chaos
    nemesis' drop-probability spike).  Raises [Invalid_argument] outside
    [\[0, 1)]. *)

val drop_probability : t -> float

val base_drop_probability : t -> float
(** The value given at {!create} (what {!heal_all} restores). *)

val set_latency_factor : t -> float -> unit
(** Multiply every subsequent latency draw by this factor (default 1.0) —
    the nemesis' latency surge.  Raises [Invalid_argument] if [<= 0]. *)

val heal_all : t -> unit
(** Recover every node, heal every cut link, and restore the create-time
    drop probability and a latency factor of 1.0.  In-flight messages that
    were already dropped stay dropped. *)

val latency_sample : t -> src:Topology.node_id -> dst:Topology.node_id -> float
(** One latency draw for the pair, exactly as [send] would use (exposed for
    tests and for modelling local reads). *)

val stats : t -> stats

val set_meter : t -> meter -> unit
(** Install the (single) observability meter.  Replaces any previous one. *)

val with_trace_context : string option -> (unit -> 'a) -> 'a
(** [with_trace_context (Some txid) f] runs [f] with the causal trace
    context set.  Every {!send} inside [f] captures the context into its
    delivery, and the receiving handler runs with it restored — so replies
    and cascading sends inherit the originating transaction id without any
    payload change.  The previous context is restored when [f] returns or
    raises.  Exact in the single-threaded simulator. *)

val apply_with_trace_context : string option -> ('a -> 'b) -> 'a -> 'b
(** [apply_with_trace_context ctx f x] is [with_trace_context ctx (fun ()
    -> f x)] without the closure. *)

val trace_context : unit -> string option
(** The transaction id attributed to the current execution, if any. *)

val call_with_trace_context :
  string option ->
  (src:Topology.node_id -> payload -> unit) ->
  src:Topology.node_id ->
  payload ->
  unit
(** [call_with_trace_context ctx handler ~src payload] is
    [with_trace_context ctx (fun () -> handler ~src payload)] without the
    closure: how a runtime delivers a message with its sender's context
    restored.  The simulated network's own delivery does the same. *)
