type t = { registry : Registry.t; spans : Span.t option }

let create ?(spans = false) () =
  {
    registry = Registry.create ();
    spans = (if spans then Some (Span.create ()) else None);
  }

let registry t = t.registry
let spans t = t.spans
let incr t ?by name = Registry.incr t.registry ?by name
let set_gauge t name v = Registry.set_gauge t.registry name v
let add_gauge t name d = Registry.add_gauge t.registry name d
let observe t name sample = Registry.observe t.registry name sample

type counter = Registry.counter

let counter t name = Registry.counter_handle t.registry name
let bump c = Registry.add c 1

type node_counters = {
  sent : counter;
  sent_bytes : counter;
  recv : counter;
  recv_bytes : counter;
}

(* ["node%02d"], built without a format: every cluster names its four
   counters per node once, and a format costs several times the string. *)
let node_label n = (if n < 10 then "node0" else "node") ^ string_of_int n

let traffic_meter t ~nodes =
  let cells =
    Array.init nodes (fun n ->
        let node = node_label n in
        {
          sent = counter t ("net.sent." ^ node);
          sent_bytes = counter t ("net.sent_bytes." ^ node);
          recv = counter t ("net.recv." ^ node);
          recv_bytes = counter t ("net.recv_bytes." ^ node);
        })
  in
  let on_send ~src ~dst:_ ~bytes =
    let c = cells.(src) in
    bump c.sent;
    Registry.add c.sent_bytes bytes
  in
  let on_deliver ~src:_ ~dst ~bytes =
    let c = cells.(dst) in
    bump c.recv;
    Registry.add c.recv_bytes bytes
  in
  (on_send, on_deliver)

let metrics_json t = Registry.to_json t.registry

let spans_json t =
  match t.spans with Some sp -> Span.to_json sp | None -> Json.List []

let merge ~into src = Registry.merge ~into:into.registry src.registry
