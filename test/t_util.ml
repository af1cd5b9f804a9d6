(* Unit + property tests for the util substrate: PRNG, statistics, tables. *)

module Rng = Mdcc_util.Rng
module Stats = Mdcc_util.Stats
module Table = Mdcc_util.Table

let test_rng_deterministic () =
  let a = Rng.create 1 and b = Rng.create 1 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Rng.int64 a <> Rng.int64 b)

let test_rng_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  (* Drawing from [a] must not affect [b]'s stream. *)
  let a' = Rng.create 5 in
  let b' = Rng.split a' in
  ignore (Rng.int64 a');
  ignore (Rng.int64 a');
  Alcotest.(check int64) "split stream independent" (Rng.int64 b) (Rng.int64 b')

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let x = Rng.int r 7 in
    Alcotest.(check bool) "0 <= x < 7" true (x >= 0 && x < 7)
  done

let test_rng_int_in () =
  let r = Rng.create 4 in
  for _ = 1 to 1000 do
    let x = Rng.int_in r 3 9 in
    Alcotest.(check bool) "3 <= x <= 9" true (x >= 3 && x <= 9)
  done

let test_rng_float_bounds () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.float r 2.5 in
    Alcotest.(check bool) "0 <= x < 2.5" true (x >= 0.0 && x < 2.5)
  done

let test_rng_bernoulli_frequency () =
  let r = Rng.create 6 in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  let freq = Float.of_int !hits /. Float.of_int n in
  Alcotest.(check bool) "bernoulli(0.3) ~ 0.3" true (freq > 0.27 && freq < 0.33)

let test_rng_exponential_mean () =
  let r = Rng.create 7 in
  let sum = ref 0.0 in
  let n = 20_000 in
  for _ = 1 to n do
    sum := !sum +. Rng.exponential r ~mean:10.0
  done;
  let mean = !sum /. Float.of_int n in
  Alcotest.(check bool) "exponential mean ~ 10" true (mean > 9.0 && mean < 11.0)

let feq msg a b = Alcotest.(check (float 1e-9)) msg a b

let test_stats_mean_stddev () =
  feq "mean" 3.0 (Stats.mean [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  feq "mean empty" 0.0 (Stats.mean []);
  feq "stddev" (Float.sqrt 2.0) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  feq "stddev singleton" 0.0 (Stats.stddev [ 42.0 ])

let test_stats_percentile () =
  let sorted = [| 10.0; 20.0; 30.0; 40.0 |] in
  feq "p0" 10.0 (Stats.percentile sorted 0.0);
  feq "p100" 40.0 (Stats.percentile sorted 100.0);
  feq "p50 interpolated" 25.0 (Stats.percentile sorted 50.0)

let test_stats_summary () =
  match Stats.summarize (List.init 100 (fun i -> Float.of_int (i + 1))) with
  | None -> Alcotest.fail "summarize returned None on a non-empty sample"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Stats.count;
    feq "min" 1.0 s.Stats.min;
    feq "max" 100.0 s.Stats.max;
    feq "median" 50.5 s.Stats.p50

let test_stats_summary_empty () =
  Alcotest.(check bool) "empty summarize is None" true (Stats.summarize [] = None);
  Alcotest.(check bool) "empty boxplot is None" true (Stats.boxplot [] = None);
  (* percentile still demands a non-empty sorted array — but totally, via a
     tagged invariant violation rather than a bare Invalid_argument. *)
  Alcotest.(check bool) "empty percentile violates" true
    (try
       ignore (Stats.percentile [||] 50.0);
       false
     with Mdcc_util.Invariant.Violation _ -> true)

let test_stats_cdf () =
  let cdf = Stats.cdf ~points:4 [ 4.0; 1.0; 3.0; 2.0 ] in
  Alcotest.(check int) "4 points" 4 (List.length cdf);
  let vs = List.map fst cdf in
  Alcotest.(check (list (float 1e-9))) "sorted values" [ 1.0; 2.0; 3.0; 4.0 ] vs;
  let last_f = snd (List.nth cdf 3) in
  feq "cdf ends at 1" 1.0 last_f;
  Alcotest.(check (list (float 1e-9))) "empty cdf" [] (List.map fst (Stats.cdf ~points:5 []))

let force_boxplot samples =
  match Stats.boxplot samples with
  | Some b -> b
  | None -> Alcotest.fail "boxplot returned None on a non-empty sample"

let test_stats_boxplot () =
  let b = force_boxplot (List.init 11 (fun i -> Float.of_int i)) in
  feq "median" 5.0 b.Stats.median;
  feq "q1" 2.5 b.Stats.q1;
  feq "q3" 7.5 b.Stats.q3;
  Alcotest.(check int) "no outliers" 0 b.Stats.outliers;
  feq "whiskers reach extremes" 0.0 b.Stats.whisker_lo;
  feq "whiskers reach extremes (hi)" 10.0 b.Stats.whisker_hi;
  let b2 = force_boxplot (1000.0 :: List.init 20 (fun i -> Float.of_int i)) in
  Alcotest.(check int) "one outlier" 1 b2.Stats.outliers;
  (* The upper whisker is the *largest in-fence sample*, not merely some
     value below the outlier (the old scan stopped at the first sample
     above the fence, leaving the whisker on the outlier side of it). *)
  feq "upper whisker on largest in-fence sample" 19.0 b2.Stats.whisker_hi

let test_stats_boxplot_all_outliers_high () =
  (* A cluster (1..20) plus three far-flung points: the whisker must land on
     the cluster's edge, skipping over *every* outlier — the old scan only
     stepped below the single largest sample. *)
  let samples = 500.0 :: 600.0 :: 700.0 :: List.init 20 (fun i -> Float.of_int (i + 1)) in
  let b = force_boxplot samples in
  Alcotest.(check int) "three outliers" 3 b.Stats.outliers;
  feq "whisker_hi on in-fence edge" 20.0 b.Stats.whisker_hi;
  feq "whisker_lo on minimum" 1.0 b.Stats.whisker_lo

let test_stats_histogram () =
  let counts = Stats.histogram ~buckets:[| 10.0; 20.0 |] [ 5.0; 15.0; 25.0; 9.0; 20.0 ] in
  Alcotest.(check (array int)) "bucketed" [| 2; 2; 1 |] counts

let test_stats_time_series () =
  let buckets =
    Stats.time_series ~width:10.0 [ (1.0, 4.0); (5.0, 6.0); (15.0, 10.0); (25.0, 2.0) ]
  in
  Alcotest.(check int) "3 buckets" 3 (List.length buckets);
  let b0 = List.nth buckets 0 in
  feq "bucket mean" 5.0 b0.Stats.mean_v;
  Alcotest.(check int) "bucket count" 2 b0.Stats.n

let test_table_render () =
  let s = Table.render ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains header" true (String.length s > 0);
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines + trailing" 5 (List.length lines)

let test_invariant_violate () =
  match Mdcc_util.Invariant.violate ~node:3 ~context:"T_util.test" "bad value %d" 42 with
  | () -> Alcotest.fail "violation not raised"
  | exception Mdcc_util.Invariant.Violation v ->
    Alcotest.(check string) "context" "T_util.test" v.Mdcc_util.Invariant.context;
    Alcotest.(check (option int)) "node" (Some 3) v.Mdcc_util.Invariant.node;
    Alcotest.(check string) "message" "bad value 42" v.Mdcc_util.Invariant.message;
    Alcotest.(check string) "to_string names the node and context"
      "invariant violation at node3 in T_util.test: bad value 42"
      (Mdcc_util.Invariant.to_string v)

(* Property: percentile is monotone in p. *)
let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 50) (float_range 0.0 1000.0)) (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun (samples, (p1, p2)) ->
      QCheck.assume (samples <> []);
      let arr = Array.of_list samples in
      Array.sort Float.compare arr;
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile arr lo <= Stats.percentile arr hi)

(* Property: mean lies within [min, max]. *)
let prop_mean_bounded =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 50) (float_range (-1000.0) 1000.0))
    (fun samples ->
      QCheck.assume (samples <> []);
      let m = Stats.mean samples in
      let lo = List.fold_left Float.min Float.infinity samples in
      let hi = List.fold_left Float.max Float.neg_infinity samples in
      m >= lo -. 1e-6 && m <= hi +. 1e-6)

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng split independence" `Quick test_rng_split_independent;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int_in bounds" `Quick test_rng_int_in;
    Alcotest.test_case "rng float bounds" `Quick test_rng_float_bounds;
    Alcotest.test_case "rng bernoulli frequency" `Quick test_rng_bernoulli_frequency;
    Alcotest.test_case "rng exponential mean" `Quick test_rng_exponential_mean;
    Alcotest.test_case "stats mean/stddev" `Quick test_stats_mean_stddev;
    Alcotest.test_case "stats percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats summary" `Quick test_stats_summary;
    Alcotest.test_case "stats empty samples are total" `Quick test_stats_summary_empty;
    Alcotest.test_case "stats cdf" `Quick test_stats_cdf;
    Alcotest.test_case "stats boxplot" `Quick test_stats_boxplot;
    Alcotest.test_case "stats boxplot whisker vs outliers" `Quick test_stats_boxplot_all_outliers_high;
    Alcotest.test_case "stats histogram" `Quick test_stats_histogram;
    Alcotest.test_case "stats time series" `Quick test_stats_time_series;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "invariant violate" `Quick test_invariant_violate;
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_mean_bounded;
  ]
