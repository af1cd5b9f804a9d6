module Rng = Mdcc_util.Rng
module Prof = Mdcc_obs.Prof

type payload = Event_queue.payload = ..

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
}

type meter = {
  m_size : payload -> int;
  m_on_send : src:Topology.node_id -> dst:Topology.node_id -> bytes:int -> unit;
  m_on_deliver : src:Topology.node_id -> dst:Topology.node_id -> bytes:int -> unit;
}

(* The trace context is the causal envelope: a transaction id set around a
   send is captured into the message in flight and restored around the
   receiving handler, so any message the handler sends in turn inherits it.
   Each simulation is single-threaded, which makes this implicit propagation
   exact — no payload constructor needs to change to carry the id.  The
   context is domain-local: parallel sweeps each see their own cell, so a
   worker domain cannot leak a transaction id into a sibling's run.

   [Domain.DLS] holds one mutable {e cell} per domain rather than the value
   itself: a network resolves its domain's cell once at [create], so the
   per-send read is a field load, not a DLS lookup.  The module-level
   [with_trace_context]/[trace_context] go through DLS and see the same
   cell — semantics are identical to storing the value in DLS directly. *)
type ctx_cell = { mutable ctx : string option }

let ctx_key : ctx_cell Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { ctx = None })

let trace_context () = (Domain.DLS.get ctx_key).ctx

let apply_with_trace_context ctx f x =
  let cell = Domain.DLS.get ctx_key in
  let saved = cell.ctx in
  cell.ctx <- ctx;
  match f x with
  | v ->
    cell.ctx <- saved;
    v
  | exception e ->
    cell.ctx <- saved;
    raise e

let with_trace_context ctx f = apply_with_trace_context ctx f ()

(* [with_trace_context] for a message handler, inline: a closure around
   the call and a [Fun.protect] record would cost words per delivery. *)
let[@inline] call_in cell ctx handler ~src payload =
  let saved = cell.ctx in
  cell.ctx <- ctx;
  match handler ~src payload with
  | () -> cell.ctx <- saved
  | exception e ->
    cell.ctx <- saved;
    raise e

let call_with_trace_context ctx handler ~src payload =
  call_in (Domain.DLS.get ctx_key) ctx handler ~src payload

type t = {
  engine : Engine.t;
  topo : Topology.t;
  node_dc : int array;  (* node -> data center *)
  dcs : int;
  dc_latency : float array;  (* flat dcs x dcs base one-way latencies *)
  delay : Event_queue.fcell;  (* the send's latency, handed to the engine unboxed *)
  jitter : Rng.fcell;  (* the jitter draw, written in place of a boxed return *)
  base_drop_probability : float;
  mutable drop_probability : float;
  mutable latency_factor : float;
  jitter_sigma : float;
  rng : Rng.t;
  handlers : (src:Topology.node_id -> payload -> unit) option array;
  failed : bool array;
  cut : (Topology.node_id * Topology.node_id, unit) Hashtbl.t;
  stats : stats;
  mutable meter : meter option;
  ctx_cell : ctx_cell;  (* this domain's trace-context cell, resolved once *)
  prof : Prof.t;  (* likewise — never a DLS read per send *)
}

let set_meter t m = t.meter <- Some m

let engine t = t.engine

let topology t = t.topo

let register t node handler = t.handlers.(node) <- Some handler

(* [Topology.one_way] from the tables built at [create], so the base
   latency is never a boxed float returned from another module; inlined
   into [send], the whole sample stays unboxed. *)
let[@inline] latency_sample t ~src ~dst =
  let base =
    if src = dst then 0.0 else t.dc_latency.((t.node_dc.(src) * t.dcs) + t.node_dc.(dst))
  in
  (* Minimum processing/stack delay so even loopback costs one event tick. *)
  let floor_latency = 0.25 in
  let jitter =
    if t.jitter_sigma <= 0.0 then 1.0
    else begin
      Rng.lognormal_into t.rng ~mu:0.0 ~sigma:t.jitter_sigma t.jitter;
      t.jitter.Rng.f
    end
  in
  floor_latency +. (base *. t.latency_factor *. jitter)

let link_cut t ~src ~dst = Hashtbl.mem t.cut (src, dst)

(* The length test skips building the [(src, dst)] key while no link is
   cut, which is every message of a fault-free run. *)
let blocked t ~src ~dst =
  t.failed.(src) || t.failed.(dst) || (Hashtbl.length t.cut > 0 && link_cut t ~src ~dst)

(* A message that comes due.  Failures and link cuts that happened while
   it was in flight also kill it: a dead data center receives nothing. *)
let deliver t ~src ~dst ~bytes payload ctx =
  if blocked t ~src ~dst then t.stats.dropped <- t.stats.dropped + 1
  else begin
    match t.handlers.(dst) with
    | None -> t.stats.dropped <- t.stats.dropped + 1
    | Some handler ->
      t.stats.delivered <- t.stats.delivered + 1;
      (match t.meter with
      | Some m ->
        (* A meter installed after the send was not sized; fall back to
           sizing at delivery so its counters still move. *)
        let bytes = if bytes > 0 then bytes else m.m_size payload in
        m.m_on_deliver ~src ~dst ~bytes
      | None -> ());
      call_in t.ctx_cell ctx handler ~src payload
  end

let create engine topo ?(drop_probability = 0.0) ?(jitter_sigma = 0.05) () =
  let dcs = Topology.num_dcs topo in
  let t =
    {
      engine;
      topo;
      node_dc = Array.init (Topology.num_nodes topo) (Topology.dc_of topo);
      dcs;
      dc_latency =
        Array.init (dcs * dcs) (fun i -> Topology.dc_one_way topo (i / dcs) (i mod dcs));
      delay = { Event_queue.f = 0.0 };
      jitter = { Rng.f = 0.0 };
      base_drop_probability = drop_probability;
      drop_probability;
      latency_factor = 1.0;
      jitter_sigma;
      rng = Rng.split (Engine.rng engine);
      handlers = Array.make (Topology.num_nodes topo) None;
      failed = Array.make (Topology.num_nodes topo) false;
      cut = Hashtbl.create 64;
      stats = { sent = 0; delivered = 0; dropped = 0 };
      meter = None;
      ctx_cell = Domain.DLS.get ctx_key;
      prof = Prof.ambient ();
    }
  in
  (* The engine's one delivery function: the message travels as a pooled
     record, and this is the only code that turns it back into a call. *)
  Engine.set_delivery engine (fun ~src ~dst ~bytes payload ctx ->
      deliver t ~src ~dst ~bytes payload ctx);
  t

let send t ~src ~dst payload =
  t.stats.sent <- t.stats.sent + 1;
  Prof.count_in t.prof "network.send";
  (* Size the payload once at send time and carry the byte count with the
     message: [m_size] walks the whole message, and computing it again at
     delivery doubled the metering cost of every message. *)
  let bytes =
    match t.meter with
    | Some m ->
      let bytes = m.m_size payload in
      m.m_on_send ~src ~dst ~bytes;
      Prof.add_in t.prof "network.sized_bytes" bytes;
      bytes
    | None -> 0
  in
  if blocked t ~src ~dst then t.stats.dropped <- t.stats.dropped + 1
  else if t.drop_probability > 0.0 && Rng.bernoulli t.rng t.drop_probability then
    t.stats.dropped <- t.stats.dropped + 1
  else begin
    t.delay.Event_queue.f <- latency_sample t ~src ~dst;
    Engine.post t.engine t.delay ~src ~dst ~bytes payload t.ctx_cell.ctx
  end

let fail_node t node = t.failed.(node) <- true

let recover_node t node = t.failed.(node) <- false

let fail_dc t dc = List.iter (fail_node t) (Topology.nodes_in_dc t.topo dc)

let recover_dc t dc = List.iter (recover_node t) (Topology.nodes_in_dc t.topo dc)

let cut_link t ~src ~dst = Hashtbl.replace t.cut (src, dst) ()

let heal_link t ~src ~dst = Hashtbl.remove t.cut (src, dst)

let set_drop_probability t p =
  if p < 0.0 || p >= 1.0 then invalid_arg "Network.set_drop_probability";
  t.drop_probability <- p

let drop_probability t = t.drop_probability

let base_drop_probability t = t.base_drop_probability

let set_latency_factor t f =
  if f <= 0.0 then invalid_arg "Network.set_latency_factor";
  t.latency_factor <- f


let heal_all t =
  Array.fill t.failed 0 (Array.length t.failed) false;
  Hashtbl.reset t.cut;
  t.drop_probability <- t.base_drop_probability;
  t.latency_factor <- 1.0

let stats t = t.stats
