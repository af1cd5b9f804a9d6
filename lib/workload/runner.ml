open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Harness = Mdcc_protocols.Harness

type spec = {
  clients_per_dc : int array;
  warmup : float;
  duration : float;
  drain : float;
  seed : int;
}

let run ?(events = []) (harness : Harness.t) (gen : Generator.t) spec =
  let engine = harness.Harness.engine in
  let metrics = Metrics.create ~warmup:spec.warmup in
  let t_end = spec.warmup +. spec.duration in
  let root_rng = Rng.create spec.seed in
  let client_id = ref 0 in
  Array.iteri
    (fun dc count ->
      for _ = 1 to count do
        incr client_id;
        let ctx =
          { Generator.rng = Rng.split root_rng; dc; client_id = !client_id; seq = 0 }
        in
        let rec loop () =
          if Engine.now engine < t_end then
            gen.Generator.prepare ctx harness (fun txn ->
                if Txn.is_read_only txn then
                  (* Browsing interaction: local reads only, not measured. *)
                  ignore (Engine.schedule engine ~after:1.0 loop)
                else begin
                  let t0 = Engine.now engine in
                  harness.Harness.submit ~dc txn (fun outcome ->
                      Metrics.add metrics
                        {
                          Metrics.submitted_at = t0;
                          latency = Engine.now engine -. t0;
                          outcome;
                          dc;
                        };
                      loop ())
                end)
        in
        (* Stagger client start-up to avoid a synchronized thundering herd. *)
        ignore (Engine.schedule engine ~after:(Rng.float root_rng 500.0) loop)
      done)
    spec.clients_per_dc;
  List.iter (fun (at, action) -> ignore (Engine.schedule_at engine ~at action)) events;
  Engine.run ~until:(t_end +. spec.drain) engine;
  metrics
