(* The chaos subsystem: checker verdicts on hand-written known-bad
   histories, runner determinism, a random-nemesis smoke sweep, and
   planted-bug detection (shrunken fast quorum must be caught). *)

open Mdcc_storage
module History = Mdcc_core.History
module Event = Mdcc_core.Event
module Checker = Mdcc_chaos.Checker
module Nemesis = Mdcc_chaos.Nemesis
module Runner = Mdcc_chaos.Runner
module Sweep = Mdcc_chaos.Sweep
module Baseline = Mdcc_chaos.Baseline
module Obs = Mdcc_obs.Obs
module Registry = Mdcc_obs.Registry

let key id = Key.make ~table:"item" ~id
let stock n = Value.of_list [ ("stock", Value.Int n) ]

let history entries =
  let h = History.create () in
  List.iter (fun { History.at; node; event } -> History.record h ~at ~node event) entries;
  h

let invariants vs =
  List.sort_uniq String.compare (List.map (fun v -> v.Checker.invariant) vs)

let check_has name evs inv =
  let vs = Checker.check (history evs) in
  Alcotest.(check bool) (name ^ " flags " ^ inv) true (List.mem inv (invariants vs))

let submitted ?(time = 0.0) txn = { History.at = time; node = 0; event = Event.Submitted txn }

let decided ?(time = 10.0) txid outcome =
  { History.at = time; node = 0; event = Event.Decided { txid; outcome } }

let applied ?(time = 20.0) ?(node = 0) txid k version value =
  { History.at = time; node; event = Event.Applied { txid; key = k; version; value; wrote = true } }

let voided ?(time = 20.0) ?(node = 0) txid k =
  { History.at = time; node; event = Event.Voided { txid; key = k } }

let write ?(value = stock 9) k vread = (k, Update.Physical { vread; value })
let guard k vread = (k, Update.Read_guard { vread })

(* A well-behaved pair of consecutive writers must pass every invariant. *)
let test_clean_history () =
  let k = key "1" in
  let t1 = Txn.make ~id:"t1" ~updates:[ write k 1 ] in
  let t2 = Txn.make ~id:"t2" ~updates:[ write k 2 ] in
  let vs =
    Checker.check
      (history
         [
           submitted t1;
           decided "t1" Txn.Committed;
           applied "t1" k 2 (stock 9);
           submitted t2;
           decided "t2" Txn.Committed;
           applied "t2" k 3 (stock 9);
         ])
  in
  Alcotest.(check (list string)) "no violations" [] (invariants vs)

(* One option, one learned value: a master's classic round may confirm
   what the coordinator learned, never reverse it. *)
let test_option_agreement_flagged () =
  let k = key "1" in
  let learned ?(node = 5) time decision =
    { History.at = time; node; event = Event.Learned { txid = "t1"; key = k; decision } }
  and classic time decision =
    {
      History.at = time;
      node = 0;
      event = Event.Classic_learned { txid = "t1"; key = k; decision };
    }
  in
  let h = history [ learned 1.0 Mdcc_core.Woption.Accepted; classic 2.0 Mdcc_core.Woption.Accepted ] in
  Alcotest.(check (list string)) "agreeing learns pass" [] (invariants (Checker.check h));
  Alcotest.(check int) "learns stay out of the log" 0 (History.length h);
  check_has "a reversed learn"
    [ learned 1.0 Mdcc_core.Woption.Accepted; classic 2.0 Mdcc_core.Woption.Rejected ]
    "option-agreement";
  let vs =
    Checker.check
      (history
         [
           classic 1.0 Mdcc_core.Woption.Rejected;
           learned ~node:6 2.0 Mdcc_core.Woption.Accepted;
         ])
  in
  Alcotest.(check (list string))
    "the first learn and its contradiction, each with its learner"
    [
      "[option-agreement] option t1 item/1 learned rejected by master node0 at 1.0, then \
       accepted by coordinator node6 at 2.0";
    ]
    (List.map Checker.violation_to_string vs)

(* Two committed writers from the same read version overwrote each other. *)
let test_lost_update_flagged () =
  let k = key "1" in
  let t1 = Txn.make ~id:"t1" ~updates:[ write k 1 ] in
  let t2 = Txn.make ~id:"t2" ~updates:[ write k 1 ] in
  check_has "double write"
    [
      submitted t1;
      decided "t1" Txn.Committed;
      applied "t1" k 2 (stock 9);
      submitted t2;
      decided "t2" Txn.Committed;
      applied ~node:1 "t2" k 2 (stock 8);
    ]
    "lost-update"

(* A pure anti-dependency cycle: t1 reads a, writes b; t2 reads b, writes a.
   No key is written twice from the same version, yet no serial order can
   place both reads before the conflicting writes. *)
let test_conflict_cycle_flagged () =
  let a = key "a" and b = key "b" in
  let t1 = Txn.make ~id:"t1" ~updates:[ guard a 1; write b 1 ] in
  let t2 = Txn.make ~id:"t2" ~updates:[ guard b 1; write a 1 ] in
  let evs =
    [
      submitted t1;
      decided "t1" Txn.Committed;
      applied "t1" b 2 (stock 9);
      submitted t2;
      decided "t2" Txn.Committed;
      applied ~node:1 "t2" a 2 (stock 9);
    ]
  in
  check_has "rw cycle" evs "serializability";
  let vs = Checker.check (history evs) in
  Alcotest.(check bool) "not a lost update" false (List.mem "lost-update" (invariants vs))

(* A replica-visible state breaching the schema bound (stock >= 0). *)
let test_demarcation_flagged () =
  let k = key "1" in
  let t1 = Txn.make ~id:"t1" ~updates:[ (k, Update.Delta [ ("stock", -70) ]) ] in
  let bounds _ = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ] in
  let vs =
    Checker.check ~bounds
      (history
         [ submitted t1; decided "t1" Txn.Committed; applied "t1" k 2 (stock (-10)) ])
  in
  Alcotest.(check bool) "flags demarcation" true (List.mem "demarcation" (invariants vs))

(* One option executed while a sibling was voided: a torn transaction. *)
let test_atomic_visibility_flagged () =
  let a = key "a" and b = key "b" in
  let t1 = Txn.make ~id:"t1" ~updates:[ write a 1; write b 1 ] in
  check_has "torn txn"
    [ submitted t1; applied "t1" a 2 (stock 9); voided ~node:1 "t1" b ]
    "atomic-visibility"

(* A committed transaction read a version nobody ever installed. *)
let test_read_committed_flagged () =
  let k = key "1" in
  let t1 = Txn.make ~id:"t1" ~updates:[ write k 7 ] in
  check_has "phantom read"
    [ submitted t1; decided "t1" Txn.Committed; applied "t1" k 8 (stock 9) ]
    "read-committed"

(* Every invariant's text, pinned: 500 small random histories from fixed
   seeds, each checked with one and with two partitions, and one digest of
   all the reports.  The histories mix every event the checker reads
   (submissions, single and double decisions, executions, voids, repairs)
   with ones it skips, over every update kind and few keys and versions,
   so that every invariant fires and the order of its violations shows. *)
let random_history seed =
  let rng = Mdcc_util.Rng.create seed in
  let int n = Mdcc_util.Rng.int rng n in
  let value () = stock (Mdcc_util.Rng.int_in rng (-2) 5) in
  let txid i = "t" ^ string_of_int i in
  let ntx = 2 + int 4 in
  let update () =
    match int 5 with
    | 0 -> Update.Delta [ ("stock", Mdcc_util.Rng.int_in rng (-3) 2) ]
    | 1 -> Update.Physical { vread = int 4; value = value () }
    | 2 -> Update.Insert (value ())
    | 3 -> Update.Delete { vread = int 4 }
    | _ -> Update.Read_guard { vread = int 4 }
  in
  let txn i =
    let first = int 3 in
    Txn.make ~id:(txid i)
      ~updates:(List.init (1 + int 3) (fun j -> (key (string_of_int ((first + j) mod 3)), update ())))
  in
  let outcome () =
    match int 3 with
    | 0 -> Txn.Committed
    | 1 -> Txn.Aborted Txn.Conflict
    | _ -> Txn.Aborted Txn.Constraint_violation
  in
  List.init (4 + int 16) (fun step ->
      let txid = txid (int (ntx + 1)) and k = key (string_of_int (int 3)) in
      let event =
        match int 8 with
        | 0 | 1 -> Event.Submitted (txn (int ntx))
        | 2 -> Event.Decided { txid; outcome = outcome () }
        | 3 | 4 -> Event.Applied { txid; key = k; version = 1 + int 4; value = value (); wrote = true }
        | 5 -> Event.Voided { txid; key = k }
        | 6 -> Event.Repaired { txid; key = k; src = int 5; version = 1 + int 4; value = value () }
        | _ ->
          if int 2 = 0 then Event.Fault "drop"
          else Event.Applied { txid; key = k; version = 2; value = value (); wrote = false }
      in
      { History.at = Float.of_int step; node = int 5; event })

let random_bounds (k : Key.t) =
  match k.Key.id with
  | "0" -> [ { Schema.attr = "stock"; lower = Some 0; upper = None } ]
  | "1" -> [ { Schema.attr = "stock"; lower = Some 0; upper = Some 4 } ]
  | _ -> [ { Schema.attr = "stock"; lower = None; upper = Some 3 } ]

let random_reports () =
  List.init 500 (fun seed ->
      let h = history (random_history (seed + 1)) in
      List.map
        (fun partition_of ->
          Checker.check ~bounds:random_bounds ~partition_of h
          |> List.map Checker.violation_to_string
          |> String.concat "\n")
        [ (fun _ -> 0); (fun (k : Key.t) -> int_of_string k.Key.id mod 2) ])
  |> List.concat

let test_random_histories_pinned () =
  let reports = random_reports () in
  let all = String.concat "\n--\n" reports in
  List.iter
    (fun inv ->
      Alcotest.(check bool) (inv ^ " fires") true
        (Helpers.contains ~needle:("[" ^ inv ^ "]") all))
    [ "atomic-visibility"; "decision-agreement"; "cross-partition-atomicity"; "lost-update";
      "read-committed"; "serializability"; "demarcation" ];
  Alcotest.(check string)
    "checker reports" "23107c59c5f6ffb70b4e862e485b70ec"
    (Digest.to_hex (Digest.string all))

(* The same seed must reproduce the same fault schedule and history. *)
let test_runner_determinism () =
  let spec = Runner.spec ~seed:7 ~scenario:Nemesis.random_faults () in
  let r1 = Runner.run spec in
  let r2 = Runner.run spec in
  Alcotest.(check string)
    "same fault schedule"
    (Nemesis.schedule_to_string r1.Runner.r_schedule)
    (Nemesis.schedule_to_string r2.Runner.r_schedule);
  Alcotest.(check int) "same history length" r1.Runner.r_events r2.Runner.r_events;
  Alcotest.(check int) "same commits" r1.Runner.r_committed r2.Runner.r_committed;
  Alcotest.(check int) "same aborts" r1.Runner.r_aborted r2.Runner.r_aborted

(* The determinism contract, end to end: two identical sweeps must render
   byte-identical JSON reports.  This is strictly stronger than the
   field-by-field check above — any surviving hash-order iteration in the
   engine, checker, or report renderer shows up here as a diff. *)
let test_sweep_json_determinism () =
  let sweep () =
    List.map
      (fun seed ->
        Runner.report_to_json (Runner.run (Runner.spec ~seed ~scenario:Nemesis.random_faults ())))
      [ 3; 4; 5 ]
    |> String.concat "\n"
  in
  Alcotest.(check string) "byte-identical sweep JSON" (sweep ()) (sweep ())

(* Random-nemesis smoke sweep: 20 seeds, every history must check clean. *)
let test_smoke_sweep () =
  for seed = 1 to 20 do
    let r = Runner.run (Runner.spec ~seed ~scenario:Nemesis.random_faults ()) in
    if not (Runner.ok r) then
      Alcotest.failf "seed %d: %s" seed (Runner.report_to_string ~verbose:true r);
    Alcotest.(check int)
      (Printf.sprintf "seed %d: all transactions decided" seed)
      0 r.Runner.r_undecided
  done

(* Runs that lost an update while an acceptor could cast a fast vote its
   Phase 1b promise had not reported (the promise fix): with the promise
   kept, every one of them is clean. *)
let test_promise_seeds_clean () =
  List.iter
    (fun (scenario, seed) ->
      let r = Runner.run (Runner.spec ~seed ~scenario ()) in
      if not (Runner.ok r) then
        Alcotest.failf "%s seed %d: %s" scenario.Nemesis.sc_name seed
          (Runner.report_to_string ~verbose:true r))
    [
      (Nemesis.latency_surge, 119);
      (Nemesis.latency_surge, 283);
      (Nemesis.random_faults, 61);
      (Nemesis.torn_broadcast, 42);
      (Nemesis.torn_broadcast_crash, 34);
    ]

(* The liveness seeds of the 2,000-seed [random] sweep, where every
   coordinator rotated its recovery over replicas that each joined a
   stuck round: a master that hands a refused round to the higher
   ballot's leader, and coordinators that keep asking it, decide every
   transaction. *)
let test_liveness_seeds_decide () =
  List.iter
    (fun seed ->
      let r = Runner.run (Runner.spec ~seed ~scenario:Nemesis.random_faults ()) in
      Alcotest.(check int) (Printf.sprintf "random %d: undecided" seed) 0 r.Runner.r_undecided;
      if not (Runner.ok r) then
        Alcotest.failf "random %d: %s" seed (Runner.report_to_string ~verbose:true r))
    [ 1190; 1208 ]

(* Shrinking the fast quorum to 3 of 5 breaks quorum intersection; the
   checker must catch the resulting violations within a small sweep.
   (Seed 10 under the clean scenario is a known catching run; sweeping a
   few seeds keeps the test robust to workload-timing drift.) *)
let test_planted_bug_caught () =
  let caught = ref false in
  let seed = ref 1 in
  while (not !caught) && !seed <= 20 do
    let r =
      Runner.run
        (Runner.spec ~seed:!seed ~scenario:Nemesis.clean ~fast_quorum_override:3 ())
    in
    if not (Runner.ok r) then caught := true;
    incr seed
  done;
  Alcotest.(check bool) "planted fast-quorum bug caught" true !caught

(* An invariant that fires inside a run ends that run, not the sweep: the
   report's one violation is [invariant], and the traced re-run's capture
   ends on the line the violation was emitted as, at the instant it fired. *)
let test_invariant_violation_reported () =
  let dies_at_2s =
    {
      Nemesis.sc_name = "dies_at_2s";
      sc_partitions = 1;
      sc_build =
        (fun ~rng:_ ~cluster ~horizon:_ ->
          ignore
            (Mdcc_sim.Engine.schedule_at (Mdcc_core.Cluster.engine cluster) ~at:2_000.0
               (fun () -> Mdcc_util.Invariant.violate ~node:2 ~context:"t_chaos" "planted"));
          []);
    }
  in
  match Sweep.run ~jobs:1 [ Runner.spec ~seed:1 ~scenario:dies_at_2s () ] with
  | [ r ] ->
    Alcotest.(check (list string)) "only violation" [ "invariant" ]
      (List.map (fun v -> v.Checker.invariant) r.Runner.r_violations);
    Alcotest.(check (option string))
      "trace ends on the violation"
      (Some "[   2000.00] invariant    invariant violation at node2 in t_chaos: planted")
      (List.nth_opt (List.rev r.Runner.r_trace) 0)
  | rs -> Alcotest.failf "%d reports for one spec" (List.length rs)

(* Knobs a run would trip an invariant on, and output files that cannot be
   written, are usage errors: exit 2 before any run starts, as for an
   unknown scenario. *)
let test_cli_rejects_bad_knobs () =
  let exe =
    if Sys.file_exists "../bin/chaos_cli.exe" then "../bin/chaos_cli.exe"
    else "_build/default/bin/chaos_cli.exe"
  in
  List.iter
    (fun args ->
      let code =
        Sys.command (Filename.quote_command exe args ~stdout:Filename.null ~stderr:Filename.null)
      in
      Alcotest.(check int) (String.concat " " args) 2 code)
    [
      [ "sweep"; "--seeds"; "1"; "--plant-bug"; "0" ];
      [ "sweep"; "--seeds"; "1"; "--plant-bug"; "6" ];
      [ "sweep"; "--seeds"; "1"; "--items"; "0" ];
      [ "replay"; "--items"; "0" ];
      [ "sweep"; "--seeds"; "1"; "--jobs"; "0" ];
      [ "sweep"; "--seeds"; "1"; "--obs-out"; "no-such-dir/obs.json" ];
      [ "sweep"; "--seeds"; "1"; "--profile"; "no-such-dir/profile.json" ];
      [ "baselines"; "--seeds"; "1"; "--jobs"; "0" ];
      [ "sweep"; "--seeds=-1" ];
      [ "sweep"; "--seeds"; "0" ];
      [ "baselines"; "--seeds"; "0" ];
      [ "sweep"; "--seeds"; "1"; "--txns=-5" ];
      [ "replay"; "--txns"; "0" ];
      [ "baselines"; "--seeds"; "1"; "--txns"; "0" ];
      [ "sweep"; "--seeds"; "1"; "--partitions"; "0" ];
      [ "replay"; "--partitions"; "0" ];
    ]

(* Anti-entropy regression at a pinned seed: torn_broadcast cuts the
   app->remote-storage links between two DCs in both pairings, so a
   replica reaches the same version as its peers with a different applied
   delta set.  Seed 6 is a known divergence-provoking run: the sweep must
   detect the divergence, replay the missing deltas, and end with no
   replica pair still marked diverged — alongside a clean checker
   verdict. *)
let test_torn_broadcast_repair () =
  let r = Runner.run (Runner.spec ~seed:6 ~scenario:Nemesis.torn_broadcast ()) in
  if not (Runner.ok r) then
    Alcotest.failf "torn_broadcast seed 6: %s" (Runner.report_to_string ~verbose:true r);
  let reg = Obs.registry r.Runner.r_obs in
  Alcotest.(check bool) "divergence provoked" true
    (Registry.counter reg "antientropy_divergence" > 0);
  Alcotest.(check bool) "repair fired" true (Registry.counter reg "antientropy_repair" > 0);
  Alcotest.(check int) "no replica left diverged" 0 (Registry.gauge reg "diverged_replicas")

(* Seed 266 of the random nemesis: during a latency surge, item/3's
   master queued one option twice (its coordinator's classic proposal
   and a retry) and ran two rounds for it at one ballot.  The second,
   validated against the first's pending vote, decided the other way, and
   the checker saw a lost update and a conflict cycle.  A re-proposal of
   a queued option now joins its entry. *)
let test_requeued_option_pinned () =
  let r = Runner.run (Runner.spec ~seed:266 ~scenario:Nemesis.random_faults ()) in
  if not (Runner.ok r) then
    Alcotest.failf "random seed 266: %s" (Runner.report_to_string ~verbose:true r)

(* The post-drain checks on a hand-built final state: one txn never
   decided, two replicas off DC 0's copy (one missing at DC 0), item 0's
   stock off its committed deltas (the aborted delta does not count), and
   item 2's divergent stock excused from accounting by its committed
   physical write.  Every pinned run is clean, so only this test sees the
   detail strings. *)
let test_post_drain_failures () =
  let delta id n = Txn.make ~id ~updates:[ (Runner.item 0, Update.Delta [ ("stock", n) ]) ] in
  let decided =
    [
      (delta "t1" (-2), Txn.Committed);
      (delta "t2" (-5), Txn.Aborted Txn.Conflict);
      ( Txn.make ~id:"t3"
          ~updates:[ (Runner.item 2, Update.Physical { vread = 1; value = stock 3 }) ],
        Txn.Committed );
    ]
  in
  let peek ~dc key =
    match (key.Key.id, dc) with
    | "0", _ -> Some (stock 7, 3)
    | "1", 1 -> Some (stock 10, 1)
    | "1", _ -> None
    | _, 2 -> Some (stock 3, 1)
    | _, _ -> Some (stock 3, 2)
  in
  let vs =
    Runner.post_drain_checks ~peek ~dcs:3 ~items:3 ~delta_items:[ 0; 1; 2 ] ~stock:10
      ~submitted:4 decided
  in
  Alcotest.(check (list (pair string string)))
    "violations, in order"
    [
      ("liveness", "1 of 4 transactions never decided");
      ("convergence", "item 1 differs between dc0 (-) and dc1 (v1)");
      ("convergence", "item 2 differs between dc0 (v2) and dc2 (v1)");
      ("accounting", "item 0 stock is 7, expected initial 10 + committed deltas -2 = 8");
      ("accounting", "item 1 disappeared");
    ]
    (List.map (fun v -> (v.Checker.invariant, v.Checker.detail)) vs)

(* The baselines keep the checker honest: quorum writes (blind LWW, cannot
   abort) must trip lost-update on its contended run, while 2PC must come
   back with no violations at all. *)
let test_baseline_canary () =
  let qw = Option.get (Baseline.protocol_named "qw-3") in
  let r = Baseline.run ~txns:30 ~seed:1 qw in
  Alcotest.(check bool) "qw-3 trips lost-update and nothing unexpected" true (Baseline.ok r);
  let tpc = Option.get (Baseline.protocol_named "2pc") in
  let r2 = Baseline.run ~txns:30 ~seed:1 tpc in
  Alcotest.(check bool) "2pc is violation-free" true
    (Baseline.ok r2 && r2.Baseline.b_violations = [])

let suite =
  [
    Alcotest.test_case "clean history passes" `Quick test_clean_history;
    Alcotest.test_case "lost update flagged" `Quick test_lost_update_flagged;
    Alcotest.test_case "conflict cycle flagged" `Quick test_conflict_cycle_flagged;
    Alcotest.test_case "option agreement flagged" `Quick test_option_agreement_flagged;
    Alcotest.test_case "demarcation breach flagged" `Quick test_demarcation_flagged;
    Alcotest.test_case "atomic visibility flagged" `Quick test_atomic_visibility_flagged;
    Alcotest.test_case "read committed flagged" `Quick test_read_committed_flagged;
    Alcotest.test_case "random histories: every invariant's text pinned" `Quick
      test_random_histories_pinned;
    Alcotest.test_case "chaos runner determinism" `Quick test_runner_determinism;
    Alcotest.test_case "sweep JSON determinism" `Quick test_sweep_json_determinism;
    Alcotest.test_case "random nemesis smoke sweep" `Slow test_smoke_sweep;
    Alcotest.test_case "planted bug caught" `Slow test_planted_bug_caught;
    Alcotest.test_case "former lost-update seeds are clean" `Slow test_promise_seeds_clean;
    Alcotest.test_case "invariant violation reported" `Quick test_invariant_violation_reported;
    Alcotest.test_case "chaos_cli rejects bad knobs" `Quick test_cli_rejects_bad_knobs;
    Alcotest.test_case "torn broadcast repaired (pinned seed)" `Quick test_torn_broadcast_repair;
    Alcotest.test_case "re-proposed queued option (pinned seed)" `Quick
      test_requeued_option_pinned;
    Alcotest.test_case "post-drain check failure paths" `Quick test_post_drain_failures;
    Alcotest.test_case "baseline canary" `Quick test_baseline_canary;
    Alcotest.test_case "former liveness seeds decide every transaction" `Quick
      test_liveness_seeds_decide;
  ]
