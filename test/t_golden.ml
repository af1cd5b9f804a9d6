(* Golden digests of the protocol's pinned outputs.  The byte-identity
   checks elsewhere compare a run with a second run of the same code, so a
   change that shifts both runs alike passes them; these compare against
   digests captured from a known-good build.  Covered: a chaos run with its
   trace captured — the trace lines, the metrics and span documents, the
   history length and the verbose report — on two scenarios at two seeds
   each, and the trace of the single-transaction demo
   ([experiments_cli demo --trace]). *)

module Runner = Mdcc_chaos.Runner
module Nemesis = Mdcc_chaos.Nemesis
module Obs = Mdcc_obs.Obs
module Json = Mdcc_obs.Json

let digest s = Digest.to_hex (Digest.string s)

let lines l = String.concat "\n" l

(* (scenario, seed, history events, trace digest, metrics ^ spans digest,
   verbose report digest) *)
let pinned_runs =
  [
    ( "torn_broadcast", 1, 313, "930cbee7154338a2e7afee53f2ed96a3",
      "b24f8a79eadf4c26e948f31102b73643", "7a5d4af24eb6b206a7e0abe1a21cb3c9" );
    ( "torn_broadcast", 2, 334, "bb0fe0a81ca02b280cc3778504a40fb7",
      "1381ee4271023911812da9711c1e0e08", "ca585a5ad260003a45c5ff078b15bced" );
    ( "master_failover", 1, 287, "f5ea88ee6ce169c9b24323568efa8409",
      "7f7c2119f798a8c998fc05005627286a", "401605971135fcd47b2ea192a578e270" );
    ( "master_failover", 2, 322, "2c4754b08c9a86e6dd3570d8654aa6f6",
      "0a93c5bda9a748c5d817059b2db32278", "ada91fcc2e156b277242975e13fe2a05" );
  ]

let test_chaos_runs () =
  List.iter
    (fun (name, seed, events, trace_d, obs_d, report_d) ->
      let scenario = Option.get (Nemesis.scenario_named name) in
      let r = Runner.run (Runner.spec ~capture_trace:true ~seed ~scenario ()) in
      let label what = Printf.sprintf "%s seed %d: %s" name seed what in
      let obs = r.Runner.r_obs in
      Alcotest.(check int) (label "history events") events r.Runner.r_events;
      Alcotest.(check string) (label "trace lines") trace_d (digest (lines r.Runner.r_trace));
      Alcotest.(check string)
        (label "metrics and spans")
        obs_d
        (digest (Json.to_string (Obs.metrics_json obs) ^ Json.to_string (Obs.spans_json obs)));
      Alcotest.(check string)
        (label "verbose report")
        report_d
        (digest (Runner.report_to_string ~verbose:true r)))
    pinned_runs

(* The checker's verdicts on every run known to violate: one digest of
   each verbose report, taken before the checker was rewritten as one fold.
   (label, spec, verbose report digest).  Fixing the demarcation breach
   and the liveness case (ROADMAP items 2 and 16) will move these
   digests. *)
let violating_runs =
  let scenario name = Option.get (Nemesis.scenario_named name) in
  [
    ( "latency_surge seed 106",
      Runner.spec ~seed:106 ~scenario:(scenario "latency_surge") (),
      "5b0e52240bb2c2704e3497ecf56a9f4a" );
    ( "random seed 61",
      Runner.spec ~seed:61 ~scenario:(scenario "random") (),
      "ea32722b0724538ea14cd252d1933780" );
    ( "random seed 291 (liveness)",
      Runner.spec ~seed:291 ~scenario:(scenario "random") (),
      "63708aecc1609a488bbd7af9912af596" );
    ( "clean seed 10, fast quorum 3",
      Runner.spec ~seed:10 ~fast_quorum_override:3 ~scenario:(scenario "clean") (),
      "d26cbe54856559a398b725ff4433d177" );
    ( "deltas on one item, seed 21 (demarcation)",
      Runner.spec ~seed:21 ~workload:Runner.Deltas ~items:1 ~txns:100
        ~scenario:(scenario "clean") (),
      "39b3206359b971f41a528ec3d63e0452" );
  ]

let test_violating_runs () =
  List.iter
    (fun (label, spec, report_d) ->
      let r = Runner.run spec in
      Alcotest.(check bool) (label ^ ": violates") false (Runner.ok r);
      Alcotest.(check string)
        (label ^ ": verbose report")
        report_d
        (digest (Runner.report_to_string ~verbose:true r)))
    violating_runs

(* The trace of [experiments_cli demo --trace]. *)
let demo_trace () =
  let buf = ref [] in
  Mdcc_workload.Experiments.demo ~trace:(fun l -> buf := l :: !buf) ~on_decided:(fun _ _ -> ()) ();
  List.rev !buf

let test_demo_trace () =
  let got = demo_trace () in
  Alcotest.(check int) "demo trace lines" 21 (List.length got);
  Alcotest.(check string) "demo trace" "89bb1c45f9095a43c7644c6c08fe5bd0" (digest (lines got))

let suite =
  [
    Alcotest.test_case "pinned chaos runs (trace, obs, report)" `Quick test_chaos_runs;
    Alcotest.test_case "pinned violating runs (verbose report)" `Quick test_violating_runs;
    Alcotest.test_case "pinned demo trace" `Quick test_demo_trace;
  ]
