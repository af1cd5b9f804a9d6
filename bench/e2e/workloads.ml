(* The four workloads, their sizes, and how one measured run of [seconds]
   splits into repetitions.  Each repetition runs in its own process, so
   heap and GC state never carry over; its inputs derive from the run's
   seed and the repetition index alone. *)

type scale = Full | Toy

let names = [ "tpcw"; "hotspot"; "chaos"; "wire" ]

(* Virtual-time phases of the simulator workloads. *)
let tpcw_phases = { Sim_wl.warmup_ms = 2_000.0; measured_ms = 10_000.0; drain_ms = 20_000.0 }
let hotspot_phases = { Sim_wl.warmup_ms = 2_000.0; measured_ms = 30_000.0; drain_ms = 20_000.0 }
let chaos_seeds = function Full -> 150 | Toy -> 1

(* Repetitions in a measured run of [seconds], from each repetition's cost
   on a 2-core machine: tpcw and hotspot 3 to 4 s, chaos about 18 s; wire
   fills the run with one process. *)
let reps w ~seconds ~scale =
  match (scale, w) with
  | Toy, _ | Full, "wire" -> 1
  | Full, ("tpcw" | "hotspot") -> max 1 (Float.to_int (Float.round (seconds /. 3.3)))
  | Full, "chaos" -> max 1 (Float.to_int (seconds /. 16.0))
  | Full, w -> invalid_arg ("unknown workload " ^ w)

let rep_seed ~seed index = (seed * 1000) + index

let run_rep w ~seed ~index ~seconds ~traced ~ladder ~scale =
  let sim phases = if scale = Toy then Sim_wl.toy else phases in
  match w with
  | "tpcw" -> Sim_wl.run (Sim_wl.tpcw (sim tpcw_phases)) ~seed:(rep_seed ~seed index) ~traced
  | "hotspot" ->
    Sim_wl.run (Sim_wl.hotspot (sim hotspot_phases)) ~seed:(rep_seed ~seed index) ~traced
  | "chaos" ->
    let seeds = chaos_seeds scale in
    Chaos_wl.run ~seed:(seed + (index * seeds)) ~seeds ~traced
  | "wire" ->
    let cfg = if scale = Toy then Wire_wl.toy else Wire_wl.full ~seconds in
    Wire_wl.run cfg ~seed:(rep_seed ~seed index) ~traced ~with_ladder:ladder
  | w -> invalid_arg ("unknown workload " ^ w)
