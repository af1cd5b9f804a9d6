(* Protocol-path counters: direct evidence for the paper's headline claims
   about which path transactions take. *)

open Mdcc_storage
open Helpers
module Engine = Mdcc_sim.Engine
module Cluster = Mdcc_core.Cluster
module Config = Mdcc_core.Config
module Coordinator = Mdcc_core.Coordinator
module Obs = Mdcc_obs.Obs
module Rng = Mdcc_util.Rng

let counted_cluster ~mode ~items =
  let engine, cluster = make_cluster ~mode ~items () in
  (engine, cluster, Cluster.obs cluster)

(* Fast commits, assisted commits, aborts and collisions, from the
   coordinators' registry counters. *)
let total_stats obs =
  let n = Mdcc_obs.Registry.counter (Obs.registry obs) in
  (n "fast_commit", n "assisted_commit", n "abort_conflict" + n "abort_constraint", n "collision")

let run_uncontended mode =
  let engine, cluster, obs = counted_cluster ~mode ~items:200 in
  let rng = Rng.create 9 in
  let submitted = ref 0 in
  for i = 0 to 99 do
    let dc = Rng.int rng 5 in
    incr submitted;
    ignore
      (Engine.schedule engine ~after:(Rng.float rng 5_000.0) (fun () ->
           Coordinator.submit
             (Cluster.coordinator cluster ~dc ~rank:0)
             (Txn.make
                ~id:(Printf.sprintf "u%d" i)
                ~updates:[ (item (2 * i), Update.Delta [ ("stock", -1) ]) ])
             (fun _ -> ())))
  done;
  Engine.run ~until:60_000.0 engine;
  (obs, !submitted)

let test_uncontended_is_pure_fast_path () =
  (* The headline: in the common case (no conflicts), every MDCC commit is
     one wide-area round trip on the fast path. *)
  let obs, submitted = run_uncontended Config.Full in
  let fast, assisted, aborts, collisions = total_stats obs in
  Alcotest.(check int) "all committed" submitted (fast + assisted);
  Alcotest.(check int) "no aborts" 0 aborts;
  Alcotest.(check int) "no collisions" 0 collisions;
  Alcotest.(check int) "every commit pure fast-path" submitted fast

let test_multi_never_uses_fast_path () =
  let obs, submitted = run_uncontended Config.Multi in
  let fast, assisted, _, _ = total_stats obs in
  Alcotest.(check int) "no fast commits in Multi" 0 fast;
  Alcotest.(check int) "all assisted (master) commits" submitted assisted

let test_contention_produces_collisions () =
  (* Two racing physical writers from distant DCs split the acceptors'
     first-arrival votes, so neither outcome can reach a fast quorum: the
     Fast Paxos collision path must fire.  (Many-way races instead tend to
     reach four *rejects* quickly — a decisive learned rejection, not a
     collision.) *)
  let engine, cluster, obs = counted_cluster ~mode:Config.Full ~items:1 in
  for i = 0 to 1 do
    Coordinator.submit
      (Cluster.coordinator cluster ~dc:(4 * i) ~rank:0)
      (Txn.make
         ~id:(Printf.sprintf "c%d" i)
         ~updates:[ (item 0, Update.Physical { vread = 1; value = item_row i }) ])
      (fun _ -> ())
  done;
  Engine.run ~until:60_000.0 engine;
  let fast, assisted, aborts, collisions = total_stats obs in
  Alcotest.(check bool) "collisions detected" true (collisions > 0);
  Alcotest.(check bool) "at least one txn aborted" true (aborts >= 1);
  Alcotest.(check bool) "decisions add up" true (fast + assisted + aborts = 2)

let suite =
  [
    Alcotest.test_case "uncontended commits are pure fast-path" `Quick
      test_uncontended_is_pure_fast_path;
    Alcotest.test_case "Multi never uses the fast path" `Quick test_multi_never_uses_fast_path;
    Alcotest.test_case "contention produces collisions" `Quick
      test_contention_produces_collisions;
  ]
