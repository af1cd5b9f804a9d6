(* Wall-clock benchmark of the parallel chaos sweep.

     dune exec bench/bench_sweep.exe -- --seeds 50 --jobs 4
     dune exec bench/bench_sweep.exe -- --out BENCH_sweep.json
     dune exec bench/bench_check.exe -- BENCH_sweep.json fresh.json --gate speedup:higher --tolerance 0.2

   Runs the full scenario-matrix sweep twice — sequentially (--jobs 1) and
   on a worker pool (--jobs N) — on identical spec lists, then:

   - verifies the two runs' report JSON and obs documents are byte-identical
     (the determinism contract; exit 2 on any divergence),
   - reports runs/sec and events/sec for both modes plus the speedup,
   - optionally writes the measurement as an Envelope (--out; bench
     "sweep", sections sequential, parallel and sweep),
   - optionally fails (exit 3) when --min-speedup is not reached.

   Comparison against a checked-in baseline is bench_check's job.  It gates
   on *speedup* rather than absolute throughput: speedup is a ratio of two
   runs on the same machine, so the checked-in baseline transfers across
   machine classes. *)

module Sweep = Mdcc_chaos.Sweep
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Json = Mdcc_obs.Json
module Prof = Mdcc_obs.Prof
module Envelope = Mdcc_bench.Envelope

type measurement = { wall_s : float; runs_per_s : float; events_per_s : float }

let measure ~jobs specs =
  let t0 = Unix.gettimeofday () in
  let reports = Sweep.run ~jobs specs in
  let wall_s = Unix.gettimeofday () -. t0 in
  let events = List.fold_left (fun acc r -> acc + r.Runner.r_events) 0 reports in
  let n = List.length reports in
  ( reports,
    {
      wall_s;
      runs_per_s = Float.of_int n /. wall_s;
      events_per_s = Float.of_int events /. wall_s;
    } )

(* One canonical string for a whole sweep: every per-run report plus the
   full obs export.  Byte equality of this string is the contract. *)
let render reports =
  String.concat "\n" (List.map Runner.report_to_json reports)
  ^ "\n"
  ^ Json.to_string (Sweep.obs_doc reports)

let measurement_section m =
  [ ("wall_s", m.wall_s); ("runs_per_s", m.runs_per_s); ("events_per_s", m.events_per_s) ]

(* --profile: run each leg once more under the per-domain profiler and
   write the attribution artifact.  The profiled legs are separate runs —
   the measured legs above stay un-instrumented, and the profile rides
   its own file (wall-clock numbers are nondeterministic, so they must
   never share a channel with byte-pinned outputs). *)
let profile_side ~jobs specs =
  let t0 = Unix.gettimeofday () in
  let _reports, snapshot = Sweep.run_profiled ~jobs specs in
  let wall_s = Unix.gettimeofday () -. t0 in
  (wall_s, snapshot)

(* One leg of the profile document: the leg's totals under [leg], one
   section per phase path under [leg:path], and its counters under
   [leg.counters]. *)
let profile_sections leg (wall_s, snapshot) =
  let attributed_ms = Prof.attributed_ms snapshot in
  ( leg,
    [
      ("wall_s", wall_s);
      ("attributed_ms", attributed_ms);
      (* For the sequential leg this is the share of the leg's wall time
         the named phases explain (the >= 0.95 acceptance bar); for a
         parallel leg phase time sums across domains, so the "fraction"
         is effectively worker-domain utilization and may exceed 1. *)
      ("attributed_fraction", attributed_ms /. (wall_s *. 1000.0));
    ] )
  :: List.map
       (fun ph ->
         ( leg ^ ":" ^ ph.Prof.ph_path,
           [
             ("count", Float.of_int ph.Prof.ph_count);
             ("wall_ms", ph.Prof.ph_wall_ms);
             ("self_ms", ph.Prof.ph_self_ms);
             ("minor_words", ph.Prof.ph_minor_words);
           ] ))
       snapshot.Prof.sn_phases
  @ [ (leg ^ ".counters", List.map (fun (n, v) -> (n, Float.of_int v)) snapshot.Prof.sn_counters) ]

let bench ~seeds ~jobs ~out ~min_speedup ~profile =
  let scenarios = Nemesis.matrix in
  let specs = Sweep.specs ~seeds ~scenarios () in
  let runs = List.length specs in
  let cores = Domain.recommended_domain_count () in
  let config =
    [
      ("seeds", Json.Int seeds);
      ("scenarios", Json.Int (List.length scenarios));
      ("runs", Json.Int runs);
      ("jobs", Json.Int jobs);
    ]
  in
  let speedup_meaningful = Envelope.comparable (Json.Obj config) in
  Printf.printf "bench-sweep: %d runs (%d seeds x %d scenarios), %d cores detected\n%!" runs
    seeds (List.length scenarios) cores;
  if not speedup_meaningful then
    Printf.printf
      "  WARNING: %d cores < %d jobs — the parallel leg will time-slice; speedup \
       assertions are skipped\n%!" cores jobs;
  let seq_reports, seq = measure ~jobs:1 specs in
  Printf.printf "  sequential: %6.2f s  %7.1f runs/s  %9.0f events/s\n%!" seq.wall_s
    seq.runs_per_s seq.events_per_s;
  let par_reports, par = measure ~jobs specs in
  Printf.printf "  jobs=%-4d   %6.2f s  %7.1f runs/s  %9.0f events/s\n%!" jobs par.wall_s
    par.runs_per_s par.events_per_s;
  if not (String.equal (render seq_reports) (render par_reports)) then begin
    Printf.eprintf
      "bench-sweep: FATAL: parallel sweep output differs from sequential (determinism \
       contract broken)\n";
    exit 2
  end;
  Printf.printf "  output: byte-identical across modes\n";
  let speedup = seq.wall_s /. par.wall_s in
  Printf.printf "  speedup: %.2fx\n" speedup;
  Option.iter
    (fun path ->
      Envelope.write path ~bench:"sweep" ~config
        [
          ("sequential", measurement_section seq);
          ("parallel", measurement_section par);
          ("sweep", [ ("speedup", speedup) ]);
        ];
      Printf.printf "  written: %s\n" path)
    out;
  Option.iter
    (fun path ->
      Printf.printf "  profiling sequential leg...\n%!";
      let seq_side = profile_side ~jobs:1 specs in
      Printf.printf "  profiling jobs=%d leg...\n%!" jobs;
      let par_side = profile_side ~jobs specs in
      Envelope.write path ~bench:"sweep_profile" ~config
        (profile_sections "sequential" seq_side @ profile_sections "parallel" par_side);
      let frac (wall_s, snap) = Prof.attributed_ms snap /. (wall_s *. 1000.0) in
      Printf.printf "  profile: attributed %.0f%% (seq) / %.0f%% (jobs=%d) of wall; %s\n"
        (100.0 *. frac seq_side) (100.0 *. frac par_side) jobs path)
    profile;
  Option.iter
    (fun floor ->
      if not speedup_meaningful then
        Printf.printf
          "  SKIPPING --min-speedup %.2f floor (%d cores < %d jobs: the ratio measures \
           time-slicing, not parallelism)\n" floor cores jobs
      else if speedup < floor then begin
        Printf.eprintf "bench-sweep: speedup %.2fx below required %.2fx\n" speedup floor;
        exit 3
      end
      else Printf.printf "  min-speedup: %.2fx >= %.2fx: ok\n" speedup floor)
    min_speedup

open Cmdliner

let seeds_arg = Arg.(value & opt int 50 & info [ "seeds" ] ~docv:"N" ~doc:"Seeds per scenario.")

let jobs_arg =
  Arg.(
    value
    & opt int (Mdcc_util.Pool.default_jobs ())
    & info [ "jobs" ] ~docv:"N" ~doc:"Worker domains for the parallel leg.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:"Write the measurement as a bench document (schema mdcc.bench.v2).")

let min_speedup_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "min-speedup" ] ~docv:"X" ~doc:"Require at least this speedup over --jobs 1.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Re-run both legs under the hot-path profiler and write the attribution artifact \
           (a bench document, bench sweep_profile: per-phase wall/alloc breakdown, \
           sequential vs --jobs N side by side) to $(docv).  The measured legs above stay \
           un-instrumented.")

let () =
  let doc = "wall-clock benchmark of the parallel chaos sweep" in
  let run seeds jobs out min_speedup profile = bench ~seeds ~jobs ~out ~min_speedup ~profile in
  let cmd =
    Cmd.v
      (Cmd.info "bench-sweep" ~doc)
      Term.(const run $ seeds_arg $ jobs_arg $ out_arg $ min_speedup_arg $ profile_arg)
  in
  exit (Cmd.eval cmd)
