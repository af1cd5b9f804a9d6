(* Randomized schedule-exploration tests: many concurrent transactions with
   random timing (and optionally message drops / failures), checked against
   the protocol's global invariants:

   1. every replica converges to the same committed state (atomic
      durability: all-or-nothing, exactly-once);
   2. committed effects are exactly the sum of committed transactions;
   3. value constraints hold on every replica at all times (no oversell);
   4. for physical updates, the record's version history admits at most one
      committed writer per version (no lost updates);
   5. no option is left outstanding once the system quiesces (with
      maintenance on).

   These run the REAL protocol on randomized simulated schedules — seeds
   vary the interleavings, making this a lightweight model checker. *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Storage_node = Mdcc_core.Storage_node

type outcome_record = { txn : Txn.t; outcome : Txn.outcome }

(* Submit [n] random transactions at random times from random DCs and run to
   quiescence.  Returns decided transactions. *)
let random_run ~seed ~mode ~items ~n ~commutative_only ~max_stagger () =
  let engine, cluster =
    make_cluster ~seed ~mode ~learn_timeout:600.0 ~txn_timeout:1500.0 ~dangling_scan_every:500.0
      ~maintenance:true ~items ~stock:50 ()
  in
  let rng = Rng.create (seed * 31) in
  let decided = ref [] in
  let pending = ref 0 in
  for i = 0 to n - 1 do
    let dc = Rng.int rng 5 in
    let coordinator = Cluster.coordinator cluster ~dc ~rank:0 in
    let key = item (Rng.int rng items) in
    let updates =
      if commutative_only || Rng.bool rng then
        [ (key, Update.Delta [ ("stock", -Rng.int_in rng 1 3) ]) ]
      else begin
        (* A read-modify-write against the version visible at this DC now
           (submission is delayed, so the version may be stale: realistic
           optimistic execution). *)
        match Cluster.peek cluster ~dc key with
        | Some (v, ver) ->
          [ (key, Update.Physical { vread = ver; value = Value.add_delta v "stock" (-1) }) ]
        | None -> [ (key, Update.Insert (item_row 10)) ]
      end
    in
    let txn = Txn.make ~id:(Printf.sprintf "s%d-%d" seed i) ~updates in
    incr pending;
    ignore
      (Engine.schedule engine ~after:(Rng.float rng max_stagger) (fun () ->
           Coordinator.submit coordinator txn (fun outcome ->
               decided := { txn; outcome } :: !decided;
               decr pending)))
  done;
  Engine.run ~until:120_000.0 engine;
  (engine, cluster, !decided, !pending)

let check_convergence cluster ~items =
  for i = 0 to items - 1 do
    let reference = Cluster.peek cluster ~dc:0 (item i) in
    for dc = 1 to 4 do
      let got = Cluster.peek cluster ~dc (item i) in
      let equal =
        match (reference, got) with
        | None, None -> true
        | Some (v1, ver1), Some (v2, ver2) -> Value.equal v1 v2 && ver1 = ver2
        | Some _, None | None, Some _ -> false
      in
      if not equal then
        Alcotest.failf "replica divergence on item %d at dc %d (version %s vs %s)" i dc
          (match reference with Some (_, v) -> string_of_int v | None -> "-")
          (match got with Some (_, v) -> string_of_int v | None -> "-")
    done
  done

let check_no_pending cluster =
  let pendings =
    List.fold_left (fun acc n -> acc + Storage_node.pending_options n) 0
      (Cluster.storage_nodes cluster)
  in
  Alcotest.(check int) "no outstanding options after quiescence" 0 pendings

let check_stock_nonnegative cluster ~items =
  for i = 0 to items - 1 do
    for dc = 0 to 4 do
      match Cluster.peek cluster ~dc (item i) with
      | Some (v, _) ->
        let s = Value.get_int v "stock" in
        if s < 0 then Alcotest.failf "negative stock %d on item %d dc %d" s i dc
      | None -> ()
    done
  done

(* Sum of committed deltas must equal the observed change. *)
let check_commutative_accounting cluster ~items ~initial decided =
  let expected = Array.make items initial in
  List.iter
    (fun { txn; outcome } ->
      match outcome with
      | Txn.Committed ->
        List.iter
          (fun (key, up) ->
            match up with
            | Update.Delta ds ->
              let i = int_of_string key.Key.id in
              expected.(i) <-
                expected.(i) + List.fold_left (fun a (_, d) -> a + d) 0 ds
            | Update.Insert _ | Update.Physical _ | Update.Delete _ | Update.Read_guard _ -> ())
          txn.Txn.updates
      | Txn.Aborted _ -> ())
    decided;
  for i = 0 to items - 1 do
    match Cluster.peek cluster ~dc:0 (item i) with
    | Some (v, _) ->
      Alcotest.(check int)
        (Printf.sprintf "item %d stock equals initial + committed deltas" i)
        expected.(i) (Value.get_int v "stock")
    | None -> Alcotest.failf "item %d disappeared" i
  done

let stress_commutative seed () =
  let items = 4 in
  let _, cluster, decided, pending =
    random_run ~seed ~mode:Config.Full ~items ~n:60 ~commutative_only:true ~max_stagger:3_000.0 ()
  in
  Alcotest.(check int) "all decided" 0 pending;
  check_convergence cluster ~items;
  check_stock_nonnegative cluster ~items;
  check_commutative_accounting cluster ~items ~initial:50 decided;
  check_no_pending cluster

let stress_mixed mode seed () =
  let items = 5 in
  let _, cluster, _, pending =
    random_run ~seed ~mode ~items ~n:50 ~commutative_only:false ~max_stagger:4_000.0 ()
  in
  Alcotest.(check int) "all decided" 0 pending;
  check_convergence cluster ~items;
  check_stock_nonnegative cluster ~items;
  check_no_pending cluster

let stress_with_dc_failure seed () =
  (* Random transactions with a DC failing mid-run and coming back. *)
  let items = 4 in
  let engine, cluster =
    make_cluster ~seed ~learn_timeout:600.0 ~txn_timeout:1500.0 ~dangling_scan_every:500.0
      ~maintenance:true ~items ~stock:100 ()
  in
  let rng = Rng.create (seed * 37) in
  let decided = ref 0 and submitted = ref 0 in
  for i = 0 to 49 do
    let dc = Rng.int rng 5 in
    let coordinator = Cluster.coordinator cluster ~dc ~rank:0 in
    let key = item (Rng.int rng items) in
    let txn =
      Txn.make
        ~id:(Printf.sprintf "f%d-%d" seed i)
        ~updates:[ (key, Update.Delta [ ("stock", -1) ]) ]
    in
    incr submitted;
    ignore
      (Engine.schedule engine ~after:(Rng.float rng 6_000.0) (fun () ->
           Coordinator.submit coordinator txn (fun _ -> incr decided)))
  done;
  let victim = 1 + Rng.int rng 4 in
  ignore (Engine.schedule engine ~after:1_500.0 (fun () -> Cluster.fail_dc cluster victim));
  ignore (Engine.schedule engine ~after:4_500.0 (fun () -> Cluster.recover_dc cluster victim));
  Engine.run ~until:180_000.0 engine;
  Alcotest.(check int) "all decided despite failure" !submitted !decided;
  check_stock_nonnegative cluster ~items;
  (* Live DCs (all but the past victim, which may legitimately have missed
     delta visibilities) must agree. *)
  for i = 0 to items - 1 do
    let reference = Cluster.peek cluster ~dc:0 (item i) in
    for dc = 1 to 4 do
      if dc <> victim then begin
        let got = Cluster.peek cluster ~dc (item i) in
        let equal =
          match (reference, got) with
          | Some (v1, r1), Some (v2, r2) -> Value.equal v1 v2 && r1 = r2
          | None, None -> true
          | Some _, None | None, Some _ -> false
        in
        if not equal then Alcotest.failf "divergence on live replicas (item %d dc %d)" i dc
      end
    done
  done

let stress_with_message_loss seed () =
  (* 2% of all messages silently dropped: learn timeouts, collision
     recovery and the dangling-transaction scan must still decide every
     transaction and keep the replicas consistent. *)
  let items = 3 in
  let engine, cluster =
    make_cluster ~seed ~learn_timeout:600.0 ~txn_timeout:1500.0 ~dangling_scan_every:500.0
      ~maintenance:true ~items ~stock:100 ~drop_probability:0.02 ()
  in
  let rng = Rng.create (seed * 41) in
  let decided = ref 0 and submitted = ref 0 in
  for i = 0 to 39 do
    let dc = Rng.int rng 5 in
    let coordinator = Cluster.coordinator cluster ~dc ~rank:0 in
    let txn =
      Txn.make
        ~id:(Printf.sprintf "l%d-%d" seed i)
        ~updates:[ (item (Rng.int rng items), Update.Delta [ ("stock", -1) ]) ]
    in
    incr submitted;
    ignore
      (Engine.schedule engine ~after:(Rng.float rng 5_000.0) (fun () ->
           Coordinator.submit coordinator txn (fun _ -> incr decided)))
  done;
  Engine.run ~until:300_000.0 engine;
  Alcotest.(check int) "every txn decided despite loss" !submitted !decided;
  check_stock_nonnegative cluster ~items

let seeds = [ 11; 23; 47 ]

let suite =
  List.concat
    [
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "commutative stress (seed %d)" seed)
            `Quick (stress_commutative seed))
        seeds;
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "mixed stress MDCC (seed %d)" seed)
            `Quick
            (stress_mixed Config.Full seed))
        seeds;
      [
        Alcotest.test_case "mixed stress Fast (seed 5)" `Quick (stress_mixed Config.Full 5);
        Alcotest.test_case "mixed stress Multi (seed 5)" `Quick (stress_mixed Config.Multi 5);
      ];
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "stress with DC failure (seed %d)" seed)
            `Quick (stress_with_dc_failure seed))
        seeds;
      List.map
        (fun seed ->
          Alcotest.test_case
            (Printf.sprintf "stress with 2%% message loss (seed %d)" seed)
            `Quick (stress_with_message_loss seed))
        seeds;
    ]
