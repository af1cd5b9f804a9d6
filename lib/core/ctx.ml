(* Shared construction context for protocol nodes.

   Coordinator, storage node and cluster constructors used to grow parallel
   optional-argument tails (?history, ?obs, ?local_nodes, ...); every new
   cross-cutting concern meant touching each signature and call site.  A
   [Ctx.t] bundles them once: build one context at the edge (a test, a CLI,
   the chaos runner), thread the same value everywhere. *)

type t = {
  history : History.t option;
      (* passive execution recorder for the chaos checker, if any *)
  obs : Mdcc_obs.Obs.t;  (* metrics registry + span collector *)
  trace : (string -> unit) option;
      (* trace-line sink, handed to the runtime that renders the lines *)
  local_nodes : int list;
      (* storage nodes co-located with a coordinator (one per partition);
         only coordinators consume this — other nodes ignore it *)
  spans : Event.span_sink option;
      (* [obs]'s span store, shared by every node the context builds *)
}

let make ?history ?(obs = Mdcc_obs.Obs.create ()) ?trace ?(local_nodes = []) () =
  let spans = Option.map Event.span_sink (Mdcc_obs.Obs.spans obs) in
  { history; obs; trace; local_nodes; spans }

let with_local_nodes t local_nodes = { t with local_nodes }

(* One node's emitter.  The history and the span store are fixed when the
   node is built; trace lines belong to the runtime, which is asked per
   event. *)
type stream = {
  s_history : History.t option;
  s_spans : Event.span_sink option;
  s_runtime : Runtime.t;
  s_node : int;
  s_collecting : bool;  (* a history or a span store is attached *)
}

let stream t runtime ~node =
  { s_history = t.history; s_spans = t.spans; s_runtime = runtime; s_node = node;
    s_collecting = Option.is_some t.history || Option.is_some t.spans }

let live s = s.s_collecting || Runtime.tracing s.s_runtime

let emit s ev =
  let at = Runtime.now s.s_runtime and node = s.s_node in
  (match s.s_history with Some h -> History.record h ~at ~node ev | None -> ());
  (match s.s_spans with Some sp -> Event.record_span sp ~at ~node ev | None -> ());
  if Runtime.tracing s.s_runtime then Event.trace s.s_runtime ~node ev
