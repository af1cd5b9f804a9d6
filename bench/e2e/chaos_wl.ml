(* The chaos workload: the 13-scenario nemesis matrix over seeds
   N .. N+seeds-1 with [Runner.spec] defaults, one run after another on one
   domain, history and spans on, checker running.

   A run that violates an invariant is not a failure of the benchmark: the
   violation is the checker's verdict on the system under test, and this
   workload measures it ([success_frac] is the share of runs without one,
   and the violating seeds are listed in the set file).  The benchmark's
   own checks are that the checker is armed (a planted fast-quorum bug is
   caught in set-up),
   that every violating run repeats its exact verdict when re-run with
   trace capture, and that no run raises.  The traced variant runs the
   same specs through [Sweep.run_profiled] and must reproduce every
   verdict. *)

module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Sweep = Mdcc_chaos.Sweep
module Checker = Mdcc_chaos.Checker
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof
module Registry = Mdcc_obs.Registry
module Span = Mdcc_obs.Span
module Json = Mdcc_obs.Json

(* Seed-major: every scenario of a seed, then the next seed, so that any
   run of consecutive seeds is the whole matrix. *)
let specs ~seed ~seeds =
  List.concat
    (List.init seeds (fun i ->
         List.map (fun scenario -> Runner.spec ~seed:(seed + i) ~scenario ()) Nemesis.matrix))

(* The sweep is timed in ten chunks of consecutive seeds, and throughput
   is the median chunk's: a burst of load from elsewhere on the machine
   slows a chunk or two, not the median. *)
let chunks = 10

(* The checker self-test run as set-up: a clean-network sweep with an
   undersized fast quorum must be flagged within 20 seeds. *)
let canary () =
  let planted s = Runner.spec ~seed:s ~scenario:Nemesis.clean ~fast_quorum_override:3 () in
  let rec go s = s <= 20 && ((not (Runner.ok (Runner.run (planted s)))) || go (s + 1)) in
  go 1

(* Virtual commit latency of every committed transaction of a run, from
   its span trees: first [submit] to first [decide] that committed. *)
let commit_latencies (r : Runner.report) =
  match Obs.spans r.Runner.r_obs with
  | None -> []
  | Some sp ->
    List.filter_map
      (fun txid ->
        let evs = Span.events sp ~txid in
        let first name = List.find_opt (fun e -> String.equal e.Span.ev_name name) evs in
        match (first "submit", first "decide") with
        | Some s, Some d when String.equal d.Span.ev_detail "committed" ->
          Some (d.Span.ev_at -. s.Span.ev_at)
        | _ -> None)
      (Span.txids sp)

let verdict (r : Runner.report) =
  String.concat ";" (List.map Checker.violation_to_string r.Runner.r_violations)

(* What the workload keeps of a run: the report itself is dropped at once,
   so the peak heap is that of one run, not of the sweep. *)
type summary = {
  s_seed : int;
  s_scenario : string;
  s_invariants : string list;
  s_repeated : bool;  (* a violating run repeated its verdict on re-run *)
  s_committed : int;
  s_aborted : int;
  s_events : int;
  s_latencies : float list;
  s_counters : (string * int) list;
}

let counter_names =
  [ "fast_commit"; "assisted_commit"; "collision"; "redirect"; "timeout_recovery";
    "option_accept"; "option_reject_version"; "option_reject_outstanding";
    "option_reject_demarcation"; "phase1_round"; "recovery_start"; "antientropy_repair" ]

let summarize ?(repeated = true) (r : Runner.report) =
  let reg = Obs.registry r.Runner.r_obs in
  {
    s_seed = r.Runner.r_seed;
    s_scenario = r.Runner.r_scenario;
    s_invariants =
      List.sort_uniq String.compare (List.map (fun v -> v.Checker.invariant) r.Runner.r_violations);
    s_repeated = repeated;
    s_committed = r.Runner.r_committed;
    s_aborted = r.Runner.r_aborted;
    s_events = r.Runner.r_events;
    s_latencies = commit_latencies r;
    s_counters =
      (let sum = Layers.counter_sum (Registry.counter_bindings reg) in
       ("net.sent", sum "net.sent.node") :: ("net.sent_bytes", sum "net.sent_bytes.node")
       :: List.map (fun n -> (n, Registry.counter reg n)) counter_names);
  }

(* One run, re-executed with trace capture when it violates (as
   [Sweep.run_one] does); the re-run must repeat the verdict. *)
let run_one spec =
  let r = Runner.run spec in
  if Runner.ok r then summarize r
  else begin
    let again = Runner.run { spec with Runner.capture_trace = true } in
    summarize ~repeated:(String.equal (verdict r) (verdict again)) again
  end

(* The canary, timed: it is the workload's set-up. *)
let timed_canary () =
  let caught, s = Measure.normalized canary in
  (s, caught)

(* Untraced, the canary runs before every chunk and after the last, so that
   the set-up samples spread over the whole run rather than over the
   machine's speed at one moment; the chunks' CPU and allocation exclude
   it. *)
let run ~seed ~seeds ~traced =
  let per_chunk = max 1 (seeds / chunks) in
  let runs, setups, rates, cpu, gc, profile =
    if traced then begin
      let setup = timed_canary () in
      let gc0 = Measure.gc () and c0 = Measure.cpu_s () in
      let reports, snap = Sweep.run_profiled ~jobs:1 (specs ~seed ~seeds) in
      let cpu = Measure.cpu_s () -. c0 and gc = Measure.gc_diff gc0 (Measure.gc ()) in
      (List.map (fun r -> summarize r) reports, [ setup ], [], cpu, gc, Some snap)
    end
    else begin
      let timed =
        List.init ((seeds + per_chunk - 1) / per_chunk) (fun c ->
            let setup = timed_canary () in
            let first = seed + (c * per_chunk) in
            let n = min per_chunk (seed + seeds - first) in
            let gc0 = Measure.gc () and t0 = Measure.cpu_s () in
            let rs = List.map run_one (specs ~seed:first ~seeds:n) in
            let dt = Measure.cpu_s () -. t0 in
            (rs, setup, dt, Measure.gc_diff gc0 (Measure.gc ())))
      in
      let last = timed_canary () in
      ( List.concat_map (fun (rs, _, _, _) -> rs) timed,
        last :: List.map (fun (_, s, _, _) -> s) timed,
        List.map (fun (rs, _, dt, _) -> Measure.ratio (Float.of_int (List.length rs)) dt) timed,
        List.fold_left (fun acc (_, _, dt, _) -> acc +. dt) 0.0 timed,
        List.fold_left (fun acc (_, _, _, g) -> Measure.gc_add acc g) Measure.gc_zero timed,
        None )
    end
  in
  let peak = Measure.peak_heap_mb () in
  let n_runs = List.length runs in
  let violating = List.filter (fun s -> s.s_invariants <> []) runs in
  let errors =
    (if List.for_all snd setups then [] else [ "planted fast-quorum bug not caught" ])
    @ List.filter_map
        (fun s ->
          if s.s_repeated then None
          else Some (Printf.sprintf "seed %d %s: verdict changed on re-run" s.s_seed s.s_scenario))
        runs
  in
  let lat = List.concat_map (fun s -> s.s_latencies) runs in
  let sum f = List.fold_left (fun acc s -> acc +. Float.of_int (f s)) 0.0 runs in
  let counter name = sum (fun s -> List.assoc name s.s_counters) in
  let ops = Float.of_int n_runs in
  let per_op x = Measure.ratio x ops in
  let committed = sum (fun s -> s.s_committed) and aborted = sum (fun s -> s.s_aborted) in
  let p50 = Measure.percentile lat 50.0 and p99 = Measure.percentile lat 99.0 in
  let success = Measure.ratio_i (n_runs - List.length violating) n_runs in
  let headline =
    [
      ("setup_s", Measure.median (List.map fst setups));
      ("vt_commit_p50_ms", p50);
      ("vt_commit_p99_ms", p99);
      ("success_frac", success);
      ("msgs_per_op", per_op (counter "net.sent"));
      ("minor_words_per_op", per_op gc.Measure.minor_words);
      ("peak_heap_mb", peak);
      ("ops_per_cpu_s", if rates = [] then Measure.ratio ops cpu else Measure.median rates);
    ]
  in
  let counters =
    [
      ("net.bytes_per_op", per_op (counter "net.sent_bytes"));
      ("workload.abort_frac", Measure.ratio aborted (committed +. aborted));
      ("chaos.violating_run_frac", Measure.ratio_i (List.length violating) n_runs);
      ("chaos.history_events_per_run", per_op (sum (fun s -> s.s_events)));
    ]
    @ Layers.counter_metrics ~c:counter ~per_op
    @ Layers.gc_metrics gc ~per_op
  in
  let layers =
    match profile with
    | None -> []
    | Some snap ->
      let phase name =
        List.find_opt
          (fun ph ->
            String.equal ph.Prof.ph_path name
            || String.ends_with ~suffix:("/" ^ name) ph.Prof.ph_path)
          snap.Prof.sn_phases
      in
      let wall name = match phase name with Some ph -> ph.Prof.ph_wall_ms | None -> 0.0 in
      let c name =
        Float.of_int (Option.value (List.assoc_opt name snap.Prof.sn_counters) ~default:0)
      in
      let events = c "event_queue.pop" in
      let engine_self, engine_w =
        match phase "engine.run" with
        | Some ph -> (ph.Prof.ph_self_ms, ph.Prof.ph_minor_words)
        | None -> (0.0, 0.0)
      in
      [
        ("runtime.events_per_op", per_op events);
        ("runtime.self_us_per_event", 1000.0 *. Measure.ratio engine_self events);
        ("runtime.words_per_event", Measure.ratio engine_w events);
        ("chaos.engine_frac", Measure.ratio (wall "engine.run") (wall "sweep.run_one"));
        ("chaos.rerun_runs", Float.of_int (List.length violating));
      ]
  in
  let violations =
    List.map
      (fun s ->
        Json.Obj
          [
            ("seed", Json.Int s.s_seed);
            ("scenario", Json.Str s.s_scenario);
            ("invariants", Json.List (List.map (fun i -> Json.Str i) s.s_invariants));
          ])
      violating
  in
  {
    Rep.attempted = n_runs;
    failed = 0;
    errors;
    values = headline @ counters @ layers;
    det =
      [
        ("violating_runs", Float.of_int (List.length violating));
        ("committed", committed);
        ("aborted", aborted);
        ("vt_commit_p50_ms", p50);
        ("vt_commit_p99_ms", p99);
        ("success_frac", success);
      ];
    cpu_s = cpu;
    info = [ ("violations", Json.List violations) ];
  }
