(* Edge cases and smaller behaviours not covered by the focused suites. *)

open Mdcc_storage
module Engine = Mdcc_sim.Engine
module Topology = Mdcc_sim.Topology
module Net = Mdcc_sim.Network
module Rng = Mdcc_util.Rng
module Harness = Mdcc_protocols.Harness

let test_engine_schedule_in_past_clamps () =
  let e = Engine.create ~seed:1 in
  ignore (Engine.schedule e ~after:10.0 (fun () -> ()));
  Engine.run e;
  (* Scheduling at an absolute time in the past fires immediately (clamped
     to now), never travels back. *)
  let fired_at = ref neg_infinity in
  ignore (Engine.schedule_at e ~at:3.0 (fun () -> fired_at := Engine.now e));
  Engine.run e;
  Alcotest.(check (float 0.0)) "clamped to now" 10.0 !fired_at

let test_engine_negative_after_clamps () =
  let e = Engine.create ~seed:1 in
  let fired = ref false in
  ignore (Engine.schedule e ~after:(-5.0) (fun () -> fired := true));
  Engine.run e;
  Alcotest.(check bool) "fired" true !fired;
  Alcotest.(check (float 0.0)) "at time zero" 0.0 (Engine.now e)

let test_rng_copy_diverges_from_original () =
  let a = Rng.create 4 in
  ignore (Rng.int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.int64 (Rng.copy a)) (Rng.int64 b)

(* Golden streams: the first eight outputs of every draw kind from fresh
   generators.  Every simulation's message order and latency comes from
   these streams, so a change to the state representation or to the float
   arithmetic that moves one bit fails here first.  Floats are compared by
   their exact bits (hex literals). *)
let golden_streams =
  [
    ( 0,
      [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL; 0xf88bb8a8724c81ecL;
        0x1b39896a51a8749bL; 0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL ],
      [ 651883; 588925; 886419; 135611; 523686; 790522; 76728; 86735 ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1;
        0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      [ -0x1.cf9fb99cfab92p-2; 0x1.53470d1ebc1f5p+1; -0x1.fa2a51dfe785dp-1; 0x1.0285969ebe6b7p-2;
        0x1.99992ecac5d52p+0; 0x1.81fae2d6ddccbp-4; -0x1.11c125d48b7fep+0; -0x1.a66ed714dc55fp-1 ],
      [ 0x1.f48a23ee81861p-1; 0x1.244757a8127ep+0; 0x1.e74e9ae12b51ep-1; 0x1.0340836545e33p+0;
        0x1.15524756d65d9p+0; 0x1.0135833a3825dp+0; 0x1.e557f1ad6e84ap-1; 0x1.eb4edefaf7903p-1 ]
    );
    ( 1,
      [ 0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL;
        0x71bb54d8d101b5b9L; 0xc34d0bff90150280L; 0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L ],
      [ 205616; 607129; 722647; 445058; 742190; 132512; 966761; 15133 ],
      [ 0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1; 0x1.c7061a43b90b2p-2;
        0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1; 0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1 ],
      [ -0x1.ced805e687297p-6; -0x1.d2c77886b0fb7p-3; 0x1.a642b2a00f6f6p-4; -0x1.032d2e3241913p-1;
        0x1.ba83c1fa099cfp-2; -0x1.0fbab16413b8ap+0; -0x1.3b936297a099ap+0; 0x1.488c4b399a312p-1 ],
      [ 0x1.ff46fe3f622dcp-1; 0x1.fa32c9118166fp-1; 0x1.0152ae38bab3ap+0; 0x1.f3342bfa866bap-1;
        0x1.059774c51692fp+0; 0x1.e5891999ec454p-1; 0x1.e16531bbed907p-1; 0x1.0858cdafc01b6p+0 ]
    );
    ( 42,
      [ 0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
        0x09bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L ],
      [ 818853; 723072; 690964; 563941; 490812; 747265; 406231; 943977 ],
      [ 0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2; 0x1.607387fc392b8p-2;
        0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1; 0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1 ],
      [ 0x1.a8ac4b546f509p-2; -0x1.c8a54f4e91a7cp-1; 0x1.bac69cd4142bfp+0; 0x1.175b8fd2de8bap-1;
        -0x1.1495f183d321dp+0; -0x1.c76296a7a60e6p+0; -0x1.25473fd96d151p+0; 0x1.0ab38bced1168p-2 ],
      [ 0x1.055d242569323p+0; 0x1.e9ab58d1b3678p-1; 0x1.171fd03b87735p+0; 0x1.07148003f0adap+0;
        0x1.e51341cbb899ep-1; 0x1.d46d8ba78bd84p-1; 0x1.e37f0ed2aecbbp-1; 0x1.035b068904ab8p+0 ]
    );
  ]

let test_rng_golden_streams () =
  let draw8 seed f =
    let r = Rng.create seed in
    List.init 8 (fun _ -> f r)
  in
  let bits = List.map Int64.bits_of_float in
  List.iter
    (fun (seed, i64, ints, floats, gaussians, lognormals) ->
      let name what = Printf.sprintf "seed %d %s" seed what in
      Alcotest.(check (list int64)) (name "int64") i64 (draw8 seed Rng.int64);
      Alcotest.(check (list int)) (name "int") ints (draw8 seed (fun r -> Rng.int r 1_000_000));
      Alcotest.(check (list int64)) (name "float") (bits floats)
        (bits (draw8 seed (fun r -> Rng.float r 1.0)));
      Alcotest.(check (list int64)) (name "gaussian") (bits gaussians)
        (bits (draw8 seed Rng.gaussian));
      Alcotest.(check (list int64)) (name "lognormal") (bits lognormals)
        (bits (draw8 seed (fun r -> Rng.lognormal r ~mu:0.0 ~sigma:0.05))))
    golden_streams;
  (* Split and copy continuations: after three draws, [split] derives a new
     stream and [copy] duplicates the parent's position. *)
  let r = Rng.create 7 in
  for _ = 1 to 3 do
    ignore (Rng.int64 r)
  done;
  let s = Rng.split r in
  let c = Rng.copy r in
  let next4 g = List.init 4 (fun _ -> Rng.int64 g) in
  let parent = [ 0x73d33b666a1e21daL; 0x3fdabe86cbbeaa11L; 0x77cbc4a133c2d0f6L; 0x53fcd6513d02befeL ] in
  Alcotest.(check (list int64)) "parent after split" parent (next4 r);
  Alcotest.(check (list int64)) "split stream"
    [ 0xaec971331f50717cL; 0x3b43325c33913dc4L; 0x6e16c90d880f8d4eL; 0xdd8cada031a7b5f0L ]
    (next4 s);
  Alcotest.(check (list int64)) "copy continues the parent" parent (next4 c)

let test_rng_pick_and_empty () =
  let r = Rng.create 6 in
  let arr = [| "a"; "b"; "c" |] in
  for _ = 1 to 50 do
    Alcotest.(check bool) "pick member" true (Array.mem (Rng.pick r arr) arr)
  done;
  Alcotest.(check bool) "empty pick raises" true
    (try
       ignore (Rng.pick r [||]);
       false
     with Mdcc_util.Invariant.Violation _ -> true)

let test_topology_invalid_args () =
  Alcotest.(check bool) "bad matrix rejected" true
    (try
       ignore
         (Topology.make ~dc_names:[| "a"; "b" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:1 ());
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "zero nodes rejected" true
    (try
       ignore (Topology.make ~dc_names:[| "a" |] ~rtt:[| [| 0.0 |] |] ~nodes_per_dc:0 ());
       false
     with Invalid_argument _ -> true)

let test_topology_custom_three_dc () =
  let topo =
    Topology.make ~dc_names:[| "x"; "y"; "z" |]
      ~rtt:[| [| 0.0; 10.0; 20.0 |]; [| 10.0; 0.0; 30.0 |]; [| 20.0; 30.0; 0.0 |] |]
      ~nodes_per_dc:2 ()
  in
  Alcotest.(check int) "6 nodes" 6 (Topology.num_nodes topo);
  Alcotest.(check (float 0.0)) "one-way" 10.0 (Topology.one_way topo 0 5)

let test_value_pp_and_key_containers () =
  let v = Value.of_list [ ("b", Value.Str "x"); ("a", Value.Int 1) ] in
  Alcotest.(check string) "pp sorted by attr" "{a=1; b=\"x\"}" (Format.asprintf "%a" Value.pp v);
  let k1 = Key.make ~table:"t" ~id:"1" and k2 = Key.make ~table:"t" ~id:"2" in
  let s = Key.Set.of_list [ k1; k2; k1 ] in
  Alcotest.(check int) "set dedups" 2 (Key.Set.cardinal s);
  let m = Key.Map.(empty |> add k1 "a" |> add k2 "b") in
  Alcotest.(check (option string)) "map find" (Some "b") (Key.Map.find_opt k2 m);
  let tbl = Key.Tbl.create 4 in
  Key.Tbl.replace tbl k1 42;
  Alcotest.(check (option int)) "tbl find" (Some 42) (Key.Tbl.find_opt tbl k1)

let test_update_predicates_and_pp () =
  Alcotest.(check bool) "guard flag" true (Update.is_read_guard (Update.Read_guard { vread = 0 }));
  Alcotest.(check bool) "delta flag" true (Update.is_commutative (Update.Delta []));
  let s = Format.asprintf "%a" Update.pp (Update.Delta [ ("x", -2); ("y", 3) ]) in
  Alcotest.(check string) "delta pp" "delta [x-2; y+3]" s;
  Alcotest.(check string) "guard pp" "guard v7"
    (Format.asprintf "%a" Update.pp (Update.Read_guard { vread = 7 }))

let test_harness_of_mdcc_round_robin () =
  let engine = Engine.create ~seed:12 in
  let config = Mdcc_core.Config.make ~replication:5 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let cluster =
    Mdcc_core.Cluster.create ~engine
      ~spec:(Mdcc_core.Cluster.Spec.make ~app_servers_per_dc:2 ())
      ~config ~schema ()
  in
  let h = Harness.of_mdcc cluster ~name:"MDCC" in
  Alcotest.(check string) "name" "MDCC" h.Harness.name;
  Alcotest.(check int) "dcs" 5 h.Harness.num_dcs;
  h.Harness.load [ (Key.make ~table:"item" ~id:"k", Value.of_list [ ("n", Value.Int 1) ]) ];
  (* Submissions from one DC alternate over its two app servers and both
     decide. *)
  let done_count = ref 0 in
  for i = 0 to 3 do
    h.Harness.submit ~dc:1
      (Txn.make
         ~id:(Printf.sprintf "rr%d" i)
         ~updates:[ (Key.make ~table:"item" ~id:"k", Update.Delta [ ("n", 1) ]) ])
      (fun _ -> incr done_count)
  done;
  Engine.run ~until:60_000.0 engine;
  Alcotest.(check int) "all decided" 4 !done_count;
  match h.Harness.peek ~dc:0 (Key.make ~table:"item" ~id:"k") with
  | Some (v, _) -> Alcotest.(check int) "all applied" 5 (Value.get_int v "n")
  | None -> Alcotest.fail "row missing"

let test_session_watermark_initial () =
  let engine = Engine.create ~seed:3 in
  let config = Mdcc_core.Config.make ~replication:5 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let cluster =
    Mdcc_core.Cluster.create ~engine ~spec:Mdcc_core.Cluster.Spec.default ~config ~schema ()
  in
  let session = Mdcc_core.Session.create (Mdcc_core.Cluster.coordinator cluster ~dc:0 ~rank:0) in
  Alcotest.(check int) "no watermark" 0
    (Mdcc_core.Session.watermark session (Key.make ~table:"item" ~id:"q"))

let suite =
  [
    Alcotest.test_case "engine schedule_at in past clamps" `Quick
      test_engine_schedule_in_past_clamps;
    Alcotest.test_case "engine negative delay clamps" `Quick test_engine_negative_after_clamps;
    Alcotest.test_case "rng copy" `Quick test_rng_copy_diverges_from_original;
    Alcotest.test_case "rng golden streams" `Quick test_rng_golden_streams;
    Alcotest.test_case "rng pick" `Quick test_rng_pick_and_empty;
    Alcotest.test_case "topology invalid args" `Quick test_topology_invalid_args;
    Alcotest.test_case "topology custom 3-DC" `Quick test_topology_custom_three_dc;
    Alcotest.test_case "value pp & key containers" `Quick test_value_pp_and_key_containers;
    Alcotest.test_case "update predicates & pp" `Quick test_update_predicates_and_pp;
    Alcotest.test_case "harness round-robin" `Quick test_harness_of_mdcc_round_robin;
    Alcotest.test_case "session watermark initial" `Quick test_session_watermark_initial;
  ]
