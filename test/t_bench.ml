(* The bench document format (mdcc.bench.v2) and bench_check's rules:
   round trip, gate directions at the tolerance edge, missing sections
   and metrics on either side, the jobs > cores skip, the foreign
   documents that exit 2, and the events ledger's sections. *)

module Envelope = Mdcc_bench.Envelope
module Json = Mdcc_obs.Json

let tmp () = Filename.temp_file "bench" ".json"

let raw json =
  let path = tmp () in
  Out_channel.with_open_bin path (fun oc -> output_string oc (Json.to_string json));
  path

let write ?(bench = "events") ?(config = []) sections =
  let path = tmp () in
  Envelope.write path ~bench ~config sections;
  path

(* [check] with everything it prints collected, for asserting on. *)
let check ?gates ?(tolerance = 0.05) base fresh =
  let buf = Buffer.create 256 in
  let line s = Buffer.add_string buf (s ^ "\n") in
  let code = Envelope.check ~out:line ~err:line ?gates ~tolerance base fresh in
  (code, Buffer.contents buf)

let base_sections = [ ("a", [ ("words", 100.0); ("wall_s", 0.5) ]); ("b", [ ("words", 10.0) ]) ]

let test_round_trip () =
  let path = write ~config:[ ("ops", Json.Int 7) ] base_sections in
  match Envelope.read path with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    Alcotest.(check string) "bench" "events" doc.Envelope.bench;
    Alcotest.(check (list (pair string (list (pair string (float 0.0))))))
      "sections" base_sections doc.Envelope.sections;
    Alcotest.(check bool) "ops kept" true (Json.member "ops" doc.Envelope.config = Some (Json.Int 7));
    Alcotest.(check bool)
      "cores added" true
      (Json.member "cores" doc.Envelope.config
      = Some (Json.Int (Domain.recommended_domain_count ())))

let scaled factor = [ ("a", [ ("words", 100.0 *. factor); ("wall_s", 9.0) ]); ("b", [ ("words", 10.0) ]) ]

let test_gate_lower () =
  let base = write base_sections in
  let gates = [ ("words", Envelope.Lower) ] in
  Alcotest.(check int) "+4% passes" 0 (fst (check ~gates base (write (scaled 1.04))));
  Alcotest.(check int) "+6% fails" 3 (fst (check ~gates base (write (scaled 1.06))));
  Alcotest.(check int) "ungated wall_s moves freely" 0 (fst (check ~gates base (write (scaled 0.5))))

let test_gate_higher () =
  let base = write base_sections in
  let gates = [ ("words", Envelope.Higher) ] in
  Alcotest.(check int) "-4% passes" 0 (fst (check ~gates base (write (scaled 0.96))));
  Alcotest.(check int) "-6% fails" 3 (fst (check ~gates base (write (scaled 0.94))));
  Alcotest.(check int) "a rise passes" 0 (fst (check ~gates base (write (scaled 2.0))))

let test_missing_in_fresh () =
  let base = write base_sections in
  let gates = [ ("words", Envelope.Lower) ] in
  Alcotest.(check int)
    "section gone" 3
    (fst (check ~gates base (write [ ("a", [ ("words", 100.0) ]) ])));
  Alcotest.(check int)
    "gated metric gone" 3
    (fst (check ~gates base (write [ ("a", [ ("wall_s", 0.5) ]); ("b", [ ("words", 10.0) ]) ])));
  Alcotest.(check int)
    "no gate: report only" 0
    (fst (check base (write [ ("a", [ ("wall_s", 0.5) ]) ])))

let test_missing_in_baseline () =
  let base = write [ ("sweep", [ ("wall_s", 1.0) ]) ] in
  let code, out = check ~gates:[ ("speedup", Envelope.Higher) ] base (write (scaled 1.0)) in
  Alcotest.(check int) "a gated metric the baseline lacks fails" 3 code;
  Alcotest.(check bool) "says which" true (Helpers.contains ~needle:"speedup" out)

let test_starved_cores () =
  let gates = [ ("speedup", Envelope.Higher) ] in
  (* Written by hand: [Envelope.write] records this machine's cores. *)
  let doc cores speedup =
    raw
      (Json.Obj
         [
           ("schema", Json.Str Envelope.schema);
           ("bench", Json.Str "sweep");
           ("config", Json.Obj [ ("jobs", Json.Int 4); ("cores", Json.Int cores) ]);
           ("sections", Json.Obj [ ("sweep", Json.Obj [ ("speedup", Json.Float speedup) ]) ]);
         ])
  in
  let code, out = check ~gates (doc 1 2.0) (doc 4 1.0) in
  Alcotest.(check int) "starved baseline: skip" 0 code;
  Alcotest.(check bool) "says SKIPPING" true (Helpers.contains ~needle:"SKIPPING" out);
  let code, out = check ~gates (doc 4 2.0) (doc 1 1.0) in
  Alcotest.(check int) "starved fresh run: skip" 0 code;
  Alcotest.(check bool) "says SKIPPING" true (Helpers.contains ~needle:"SKIPPING" out);
  Alcotest.(check int) "enough cores: compared" 3 (fst (check ~gates (doc 4 2.0) (doc 4 1.0)))

let test_foreign () =
  let base = write base_sections in
  let v1 =
    raw
      (Json.Obj
         [
           ("schema", Json.Str "mdcc.bench_events.v1");
           ("config", Json.Obj []);
           ("sections", Json.Obj []);
         ])
  in
  Alcotest.(check int) "old schema" 2 (fst (check base v1));
  Alcotest.(check int) "other bench" 2 (fst (check base (write ~bench:"sweep" base_sections)));
  Alcotest.(check int) "no file" 2 (fst (check base (Filename.concat (Filename.dirname base) "absent.json")))

(* The checked-in ledger has one section per probe, in probe order: a
   probe added or renamed without regenerating BENCH_events.json fails
   here, not only in CI's bench step. *)
let test_ledger_matches_probes () =
  match Envelope.read "../BENCH_events.json" with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    Alcotest.(check (list string))
      "sections" (List.map (fun (p : Mdcc_bench.Probe.t) -> p.name) Mdcc_bench.Probe.all)
      (List.map fst doc.Envelope.sections)

(* bench_sweep's bad knobs are usage errors: one stderr line and exit 2
   before any sweep runs. *)
let test_sweep_rejects_bad_knobs () =
  let exe =
    if Sys.file_exists "../bench/bench_sweep.exe" then "../bench/bench_sweep.exe"
    else "_build/default/bench/bench_sweep.exe"
  in
  List.iter
    (fun (args, line) ->
      let err = tmp () in
      let code = Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr:err) in
      Alcotest.(check int) (String.concat " " args) 2 code;
      Alcotest.(check string) "one stderr line" (line ^ "\n")
        (In_channel.with_open_bin err In_channel.input_all))
    [
      ([ "--seeds"; "0" ], "bench-sweep: --seeds must be at least 1 (got 0)");
      ([ "--seeds"; "1"; "--jobs"; "0" ], "bench-sweep: --jobs must be at least 1 (got 0)");
    ]

let suite =
  [
    Alcotest.test_case "v2 round trip" `Quick test_round_trip;
    Alcotest.test_case "lower gate at 5%" `Quick test_gate_lower;
    Alcotest.test_case "higher gate at 5%" `Quick test_gate_higher;
    Alcotest.test_case "missing from fresh fails" `Quick test_missing_in_fresh;
    Alcotest.test_case "gated metric missing from baseline fails" `Quick test_missing_in_baseline;
    Alcotest.test_case "jobs > cores skips" `Quick test_starved_cores;
    Alcotest.test_case "foreign document exits 2" `Quick test_foreign;
    Alcotest.test_case "BENCH_events.json lists the probes" `Quick test_ledger_matches_probes;
    Alcotest.test_case "bench_sweep rejects bad knobs" `Quick test_sweep_rejects_bad_knobs;
  ]
