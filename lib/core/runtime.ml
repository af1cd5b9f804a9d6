module Net = Mdcc_sim.Network
module Engine = Mdcc_sim.Engine
module Topology = Mdcc_sim.Topology
module Rng = Mdcc_util.Rng

type timer = unit -> unit

type alarm = after:float -> unit

type t = {
  r_now : unit -> float;
  r_now_into : Engine.stamp -> unit;
  r_send : src:int -> dst:int -> Net.payload -> unit;
  r_register : int -> (src:int -> Net.payload -> unit) -> unit;
  r_set_timer : after:float -> (unit -> unit) -> (unit -> unit);
  r_every : period:float -> (unit -> unit) -> unit;
  r_alarm : (unit -> unit) -> alarm;
  r_spawn : (unit -> unit) -> unit;
  r_rng : Rng.t;
  r_dc_of : int -> int;
  r_trace : tag:string -> string -> unit;
  r_tracing : unit -> bool;
}

(* A periodic timer on a runtime that only has one-shot timers: a thunk
   that runs [f] and then arms itself again. *)
let every_of_set_timer set_timer ~period f =
  let rec loop () =
    f ();
    ignore (set_timer ~after:period loop)
  in
  ignore (set_timer ~after:period loop)

(* An alarm on a runtime that only has one-shot timers: each arming sets
   one. *)
let alarm_of_set_timer set_timer f ~after = ignore (set_timer ~after f)

let make ~now ~send ~register ~set_timer ~spawn ~rng ~dc_of ~trace ~tracing () =
  {
    r_now = now;
    r_now_into = (fun c -> c.Engine.time <- now ());
    r_send = send;
    r_register = register;
    r_set_timer = set_timer;
    r_every = every_of_set_timer set_timer;
    r_alarm = alarm_of_set_timer set_timer;
    r_spawn = spawn;
    r_rng = rng;
    r_dc_of = dc_of;
    r_trace = trace;
    r_tracing = tracing;
  }

let now t = t.r_now ()

let now_into t c = t.r_now_into c

let send t ~src ~dst payload = t.r_send ~src ~dst payload

let register t node handler = t.r_register node handler

let set_timer t ~after f = t.r_set_timer ~after f

let every t ~period f =
  if not (period > 0.0) then
    Mdcc_util.Invariant.violate ~context:"Runtime.every" "period %g is not > 0" period;
  t.r_every ~period f

let alarm t f = t.r_alarm f

let arm (a : alarm) ~after = a ~after

let no_timer : timer = ignore

let cancel_timer _t (cancel : timer) = cancel ()

let spawn t f = t.r_spawn f

let rng t = t.r_rng

let dc_of t node = t.r_dc_of node

let tracing t = t.r_tracing ()

(* When nobody is listening, [ikfprintf] consumes the format arguments
   without building the string — a disabled trace point costs one indirect
   call and zero allocation instead of a full [ksprintf] rendering. *)
let trace t ~tag fmt =
  if t.r_tracing () then Printf.ksprintf (fun msg -> t.r_trace ~tag msg) fmt
  else Printf.ikfprintf ignore () fmt

let of_network ?trace net =
  let engine = Net.engine net in
  let topo = Net.topology net in
  let r_trace, tracing =
    match trace with
    | Some sink ->
      ( (fun ~tag msg ->
          sink (Printf.sprintf "[%10.2f] %-12s %s" (Engine.now engine) tag msg)),
        true )
    | None -> ((fun ~tag:_ _ -> ()), false)
  in
  {
    r_now = (fun () -> Engine.now engine);
    r_now_into = (fun c -> Engine.now_into engine c);
    r_send = (fun ~src ~dst payload -> Net.send net ~src ~dst payload);
    r_register = (fun node handler -> Net.register net node handler);
    r_set_timer =
      (fun ~after f ->
        let h = Engine.schedule engine ~after f in
        fun () -> Engine.cancel engine h);
    r_every = (fun ~period f -> Engine.every engine ~period f);
    r_alarm =
      (fun f ->
        let a = Engine.alarm f in
        fun ~after -> Engine.arm engine a ~after);
    r_spawn = (fun f -> ignore (Engine.schedule engine ~after:0.0 f));
    r_rng = Engine.rng engine;
    r_dc_of = (fun node -> Topology.dc_of topo node);
    r_trace;
    r_tracing = (fun () -> tracing);
  }
