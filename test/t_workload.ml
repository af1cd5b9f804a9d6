(* Tests of the workload layer: metrics, generators, the experiment runner
   and end-to-end mini experiments. *)

open Mdcc_storage
module Metrics = Mdcc_workload.Metrics
module Generator = Mdcc_workload.Generator
module Micro = Mdcc_workload.Micro
module Tpcw = Mdcc_workload.Tpcw
module Runner = Mdcc_workload.Runner
module Setup = Mdcc_workload.Setup
module Rng = Mdcc_util.Rng
module Harness = Mdcc_protocols.Harness
module Engine = Mdcc_sim.Engine

let sample at latency outcome =
  { Metrics.submitted_at = at; latency; outcome; dc = 0 }

let test_metrics_warmup_filter () =
  let m = Metrics.create ~warmup:1000.0 in
  Metrics.add m (sample 500.0 10.0 Txn.Committed);
  Metrics.add m (sample 1500.0 20.0 Txn.Committed);
  Metrics.add m (sample 2000.0 30.0 (Txn.Aborted Txn.Conflict));
  Alcotest.(check int) "commits after warmup" 1 (Metrics.commit_count m);
  Alcotest.(check int) "aborts after warmup" 1 (Metrics.abort_count m);
  Alcotest.(check (list (float 1e-9))) "latencies" [ 20.0 ] (Metrics.commit_latencies m);
  (* The raw series keeps warm-up samples (Figure 8 shows the whole run). *)
  Alcotest.(check int) "series keeps all commits" 2 (List.length (Metrics.latency_series m))

let test_metrics_throughput () =
  let m = Metrics.create ~warmup:0.0 in
  for i = 1 to 50 do
    Metrics.add m (sample (Float.of_int i) 5.0 Txn.Committed)
  done;
  Alcotest.(check (float 1e-9)) "tps" 5.0 (Metrics.throughput m ~duration:10_000.0)

let micro_ctx seed = { Generator.rng = Rng.create seed; dc = 2; client_id = 7; seq = 0 }

(* A harness that cannot submit and finds no row, at once. *)
let dummy_harness ~read_local : Harness.t =
  {
    Harness.name = "dummy";
    engine = Engine.create ~seed:0;
    num_dcs = 5;
    submit = (fun ~dc:_ _ _ -> assert false);
    read_local;
    peek = (fun ~dc:_ _ -> None);
    load = (fun _ -> ());
    fail_dc = ignore;
    recover_dc = ignore;
  }

(* A generator driven without any harness reads (commutative micro). *)
let gen_txn params seed =
  let gen = Micro.generator params in
  let result = ref None in
  (* commutative micro never touches the harness, so a dummy works *)
  let dummy = dummy_harness ~read_local:(fun ~dc:_ _ _ -> assert false) in
  gen.Generator.prepare (micro_ctx seed) dummy (fun txn -> result := Some txn);
  match !result with Some t -> t | None -> Alcotest.fail "generator did not yield"

(* Transaction ids and TPC-W's order-line ids are built digit by digit;
   each must be the string [Printf] made, or every pinned output moves. *)
let prop_ids_like_printf =
  let any_int = QCheck.Gen.(oneof [ int; oneofl [ min_int; max_int; -10; -1; 0; 9; 10 ] ]) in
  QCheck.Test.make ~name:"txids and order-line ids format like Printf" ~count:300
    (QCheck.make QCheck.Gen.(triple any_int any_int (int_bound 1_000)))
    (fun (client_id, seq, seed) ->
      let ctx = { Generator.rng = Rng.create seed; dc = 0; client_id; seq } in
      let txid i = Printf.sprintf "c%d-%d" client_id (seq + i) in
      let harness = dummy_harness ~read_local:(fun ~dc:_ _ k -> k None) in
      let txns = ref [] in
      for _ = 1 to 20 do
        (Tpcw.generator Tpcw.default).Generator.prepare ctx harness (fun txn ->
            txns := txn :: !txns)
      done;
      let txns = List.rev !txns in
      let lines_like_printf txn =
        List.filter (fun (key, _) -> String.equal key.Key.table "order_line") txn.Txn.updates
        |> List.mapi (fun n (key, _) ->
               String.equal key.Key.id (Printf.sprintf "%s-%d" txn.Txn.id n))
        |> List.for_all Fun.id
      in
      List.map (fun txn -> txn.Txn.id) txns = List.init 20 (fun i -> txid (i + 1))
      && List.for_all lines_like_printf txns)

let test_micro_generator_shape () =
  let params = { Micro.default with num_items = 100 } in
  for seed = 1 to 20 do
    let txn = gen_txn params seed in
    Alcotest.(check int) "3 distinct items" 3 (List.length txn.Txn.updates);
    List.iter
      (fun (key, up) ->
        Alcotest.(check string) "item table" "item" key.Key.table;
        match up with
        | Update.Delta [ ("stock", d) ] ->
          Alcotest.(check bool) "decrement 1..3" true (d <= -1 && d >= -3)
        | _ -> Alcotest.fail "expected single stock delta")
      txn.Txn.updates
  done

let test_micro_hotspot_skew () =
  let params =
    { Micro.default with num_items = 1000; hotspot = Some (0.02, 0.9) }
  in
  let hot = ref 0 and total = ref 0 in
  for seed = 1 to 200 do
    let txn = gen_txn params seed in
    List.iter
      (fun (key, _) ->
        incr total;
        if int_of_string key.Key.id < 20 then incr hot)
      txn.Txn.updates
  done;
  let frac = Float.of_int !hot /. Float.of_int !total in
  Alcotest.(check bool) "~90% of accesses hit the 2% hotspot" true (frac > 0.8 && frac < 0.97)

let test_micro_locality_pins_masters () =
  let params =
    { Micro.default with num_items = 1000; locality = Some 1.0 }
  in
  (* ctx.dc = 2: with locality 1.0 every chosen item must have master DC 2,
     i.e. item mod 5 = 2. *)
  for seed = 1 to 50 do
    let txn = gen_txn params seed in
    List.iter
      (fun (key, _) ->
        Alcotest.(check int) "local master item" 2 (int_of_string key.Key.id mod 5))
      txn.Txn.updates
  done

let test_micro_master_dc_of () =
  Alcotest.(check int) "item 7 -> dc 2" 2
    (Micro.master_dc_of ~num_dcs:5 (Key.make ~table:"item" ~id:"7"));
  Alcotest.(check int) "item 10 -> dc 0" 0
    (Micro.master_dc_of ~num_dcs:5 (Key.make ~table:"item" ~id:"10"))

let test_micro_rows () =
  let params = { Micro.default with num_items = 50; initial_stock = 33 } in
  let rows = Micro.rows params ~rng:(Rng.create 1) in
  Alcotest.(check int) "50 rows" 50 (List.length rows);
  List.iter
    (fun (_, v) -> Alcotest.(check int) "stock" 33 (Value.get_int v "stock"))
    rows

let test_tpcw_rows_and_schema () =
  let p = { Tpcw.default with items = 100 } in
  let rows = Tpcw.rows p ~rng:(Rng.create 2) in
  (* 100 items + 10 customers + 10 carts *)
  Alcotest.(check int) "row count" 120 (List.length rows);
  List.iter
    (fun ((key : Key.t), v) ->
      if String.equal key.Key.table "item" then begin
        Alcotest.(check bool) "stock loaded" true (Value.get_int v "stock" >= 500);
        Alcotest.(check bool) "price loaded" true (Value.get_int v "price" >= 1)
      end)
    rows

(* End-to-end: a small TPC-W run on every protocol decides transactions and
   keeps stock non-negative on the transactional systems. *)
let mini_spec =
  {
    Runner.clients_per_dc = [| 1; 1; 1; 0; 0 |];
    warmup = 500.0;
    duration = 4_000.0;
    drain = 20_000.0;
    seed = 3;
  }

let run_mini protocol =
  let p = { Tpcw.default with items = 100; commutative = Setup.commutative protocol } in
  let rows = Tpcw.rows p ~rng:(Rng.create 5) in
  let h = Setup.make protocol ~seed:11 ~schema:Tpcw.schema ~rows () in
  let m = Runner.run h (Tpcw.generator p) mini_spec in
  (h, m)

let test_mini_tpcw protocol () =
  let h, m = run_mini protocol in
  Alcotest.(check bool)
    (Setup.name protocol ^ " commits transactions")
    true
    (Metrics.commit_count m > 0);
  (* Transactional protocols never drive stock negative. *)
  (match protocol with
  | Setup.Qw _ -> ()
  | _ ->
    for i = 0 to 99 do
      match h.Harness.peek ~dc:0 (Key.make ~table:"item" ~id:(string_of_int i)) with
      | Some (v, _) ->
        Alcotest.(check bool) "stock >= 0" true (Value.get_int v "stock" >= 0)
      | None -> Alcotest.fail "item missing"
    done);
  (* Samples measure only write transactions. *)
  List.iter
    (fun (s : Metrics.sample) ->
      Alcotest.(check bool) "latency positive" true (s.Metrics.latency > 0.0))
    (Metrics.samples m)

let test_runner_determinism () =
  let run () =
    let _, m = run_mini Setup.Mdcc in
    (Metrics.commit_count m, Metrics.abort_count m, Metrics.commit_latencies m)
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "same seed, identical run" true (a = b)

let test_quick_experiment_fig5_ordering () =
  (* The headline result at test scale: MDCC commits with lower median
     latency than Multi and 2PC on the micro-benchmark. *)
  let rows = Mdcc_workload.Experiments.fig5 ~quick:true ~obs:(Mdcc_obs.Obs.create ()) () in
  let median name =
    match List.find_opt (fun (r : Mdcc_workload.Experiments.latency_row) -> r.proto = name) rows with
    | Some { summary = Some s; _ } -> s.Mdcc_util.Stats.p50
    | Some { summary = None; _ } | None -> Alcotest.failf "no data for %s" name
  in
  Alcotest.(check bool) "MDCC < Multi" true (median "MDCC" < median "Multi");
  Alcotest.(check bool) "MDCC < 2PC" true (median "MDCC" < median "2PC");
  Alcotest.(check bool) "Multi < 2PC" true (median "Multi" < median "2PC")

(* [experiments_cli run] takes only the ids of [Experiments.all]: an
   unknown one is a usage error, not a silent success. *)
let test_cli_unknown_experiment () =
  let exe =
    if Sys.file_exists "../bin/experiments_cli.exe" then "../bin/experiments_cli.exe"
    else "_build/default/bin/experiments_cli.exe"
  in
  let code =
    Sys.command
      (Filename.quote_command exe [ "run"; "fig9" ] ~stdout:Filename.null ~stderr:Filename.null)
  in
  if code = 0 then Alcotest.fail "experiments_cli run fig9 exited 0"

(* Bad knobs and unwritable output files are usage errors: one stderr
   line and exit 2 before any experiment runs. *)
let test_cli_bad_knobs () =
  let exe =
    if Sys.file_exists "../bin/experiments_cli.exe" then "../bin/experiments_cli.exe"
    else "_build/default/bin/experiments_cli.exe"
  in
  List.iter
    (fun args ->
      let code =
        Sys.command
          (Filename.quote_command exe ("run" :: "fig8" :: "--quick" :: args)
             ~stdout:Filename.null ~stderr:Filename.null)
      in
      Alcotest.(check int) (String.concat " " args) 2 code)
    [
      [ "--jobs"; "0" ];
      [ "--metrics-out"; "no-such-dir/metrics.json" ];
      [ "--profile"; "no-such-dir/profile.json" ];
    ]

(* A profiled run counts the work of every domain: the figure fan-outs
   map through Prof.map_list, so --jobs 2 records the engine runs and
   queue pops that --jobs 1 records, and both profiles are bench
   documents bench_check can diff. *)
let test_cli_profile_counts_worker_domains () =
  let exe name =
    if Sys.file_exists ("../" ^ name) then "../" ^ name else "_build/default/" ^ name
  in
  let profile jobs =
    let path = Filename.temp_file "profile" ".json" in
    let code =
      Sys.command
        (Filename.quote_command (exe "bin/experiments_cli.exe")
           [ "run"; "fig5"; "--quick"; "--jobs"; string_of_int jobs; "--profile"; path ]
           ~stdout:Filename.null ~stderr:Filename.null)
    in
    Alcotest.(check int) (Printf.sprintf "--jobs %d exit" jobs) 0 code;
    match Mdcc_bench.Envelope.read path with
    | Error e -> Alcotest.failf "--jobs %d profile: %s" jobs e
    | Ok doc -> (path, doc.Mdcc_bench.Envelope.sections)
  in
  let metric sections section name =
    match List.assoc_opt section sections with
    | Some metrics -> Option.value (List.assoc_opt name metrics) ~default:0.0
    | None -> 0.0
  in
  let p1, s1 = profile 1 and p2, s2 = profile 2 in
  let engine_runs s = metric s "run:engine.run" "count" in
  let pops s = metric s "run.counters" "event_queue.pop" in
  Alcotest.(check bool) "engine runs recorded" true (engine_runs s1 > 0.0);
  Alcotest.(check (float 0.0)) "engine.run spans" (engine_runs s1) (engine_runs s2);
  Alcotest.(check (float 0.0)) "event_queue.pop" (pops s1) (pops s2);
  let code =
    Sys.command
      (Filename.quote_command (exe "bench/bench_check.exe") [ p1; p2 ] ~stdout:Filename.null)
  in
  Alcotest.(check int) "bench_check exit" 0 code;
  List.iter Sys.remove [ p1; p2 ]

let suite =
  [
    Alcotest.test_case "metrics warmup filter" `Quick test_metrics_warmup_filter;
    Alcotest.test_case "metrics throughput" `Quick test_metrics_throughput;
    Alcotest.test_case "micro generator shape" `Quick test_micro_generator_shape;
    QCheck_alcotest.to_alcotest prop_ids_like_printf;
    Alcotest.test_case "micro hotspot skew" `Quick test_micro_hotspot_skew;
    Alcotest.test_case "micro locality pins masters" `Quick test_micro_locality_pins_masters;
    Alcotest.test_case "micro master_dc_of" `Quick test_micro_master_dc_of;
    Alcotest.test_case "micro rows" `Quick test_micro_rows;
    Alcotest.test_case "tpcw rows & schema" `Quick test_tpcw_rows_and_schema;
    Alcotest.test_case "mini TPC-W on MDCC" `Quick (test_mini_tpcw Setup.Mdcc);
    Alcotest.test_case "mini TPC-W on Fast" `Quick (test_mini_tpcw Setup.Fast);
    Alcotest.test_case "mini TPC-W on Multi" `Quick (test_mini_tpcw Setup.Multi);
    Alcotest.test_case "mini TPC-W on QW-3" `Quick (test_mini_tpcw (Setup.Qw 3));
    Alcotest.test_case "mini TPC-W on 2PC" `Quick (test_mini_tpcw Setup.Two_pc);
    Alcotest.test_case "mini TPC-W on Megastore*" `Quick (test_mini_tpcw Setup.Megastore);
    Alcotest.test_case "runner determinism" `Quick test_runner_determinism;
    Alcotest.test_case "fig5 ordering at test scale" `Slow test_quick_experiment_fig5_ordering;
    Alcotest.test_case "experiments_cli: unknown id exits nonzero" `Quick
      test_cli_unknown_experiment;
    Alcotest.test_case "experiments_cli: bad knobs exit 2" `Quick test_cli_bad_knobs;
    Alcotest.test_case "experiments_cli: --profile counts worker domains" `Quick
      test_cli_profile_counts_worker_domains;
  ]
