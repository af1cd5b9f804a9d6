(* The observability subsystem: JSON tree render/parse, the metrics
   registry, per-transaction spans, the context's trace-line sink, and the
   end-to-end acceptance contract — a chaos run over the fast-commutative
   workload exercises the fast path and collision resolution, every
   committed transaction has a sim-time-ordered span tree, and two
   same-seed runs render byte-identical observability JSON. *)

module Json = Mdcc_obs.Json
module Registry = Mdcc_obs.Registry
module Span = Mdcc_obs.Span
module Obs = Mdcc_obs.Obs
module Prof = Mdcc_obs.Prof
module Prometheus = Mdcc_obs.Prometheus
module Engine = Mdcc_sim.Engine
module Runner = Mdcc_chaos.Runner
module Nemesis = Mdcc_chaos.Nemesis
module Sweep = Mdcc_chaos.Sweep

let contains = Helpers.contains

let index_of ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = if i + nl > hl then -1 else if String.sub hay i nl = needle then i else go (i + 1) in
  go 0

(* ------------------------------------------------------------------ *)
(* Json                                                                *)
(* ------------------------------------------------------------------ *)

let test_json_render () =
  let j =
    Json.Obj
      [
        ("a", Json.Int 1);
        ("b", Json.Str "x\"y\n");
        ("c", Json.List [ Json.Bool true; Json.Null; Json.Float 1.5 ]);
      ]
  in
  Alcotest.(check string)
    "compact render" "{\"a\":1,\"b\":\"x\\\"y\\n\",\"c\":[true,null,1.5]}" (Json.to_string j)

let test_json_float_forms () =
  Alcotest.(check string) "integral float keeps .0" "[1.0]"
    (Json.to_string (Json.List [ Json.Float 1.0 ]));
  Alcotest.(check string) "nan renders as null" "[null]"
    (Json.to_string (Json.List [ Json.Float Float.nan ]));
  Alcotest.(check string) "infinity renders as null" "[null]"
    (Json.to_string (Json.List [ Json.Float Float.infinity ]))

let test_json_roundtrip () =
  let src =
    "{\"counters\":{\"x\":3},\"ls\":[1,2.5,\"s\",true,false,null],\"nested\":{\"k\":[{}]}}"
  in
  match Json.parse src with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t -> Alcotest.(check string) "render(parse(s)) = s" src (Json.to_string t)

let test_json_parse_errors () =
  let bad s =
    match Json.parse s with
    | Ok _ -> Alcotest.failf "%S should not parse" s
    | Error e -> Alcotest.(check bool) "error mentions offset" true (String.length e > 0)
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "\"unterminated";
  bad "truth"

let test_json_member () =
  match Json.parse "{\"a\":{\"b\":7}}" with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok t ->
    (match Json.member "a" t with
    | Some inner ->
      Alcotest.(check bool) "nested member" true (Json.member "b" inner = Some (Json.Int 7))
    | None -> Alcotest.fail "member a missing");
    Alcotest.(check bool) "absent member" true (Json.member "zz" t = None)

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let test_registry_counters_gauges () =
  let r = Registry.create () in
  Registry.incr r "c";
  Registry.incr r ~by:4 "c";
  Registry.incr r "a";
  Registry.set_gauge r "g" 7;
  Registry.add_gauge r "g" (-2);
  Alcotest.(check int) "counter" 5 (Registry.counter r "c");
  Alcotest.(check int) "untouched counter" 0 (Registry.counter r "zzz");
  Alcotest.(check int) "gauge" 5 (Registry.gauge r "g");
  Registry.observe r "h" 10.0;
  Registry.observe r "h" 20.0;
  Alcotest.(check int) "hist count" 2 (Registry.hist_count r "h");
  (* Counters render in sorted name order regardless of insertion order. *)
  let s = Json.to_string (Registry.to_json r) in
  let ia = index_of ~needle:"\"a\":" s and ic = index_of ~needle:"\"c\":" s in
  Alcotest.(check bool) "a before c in render" true (ia >= 0 && ic >= 0 && ia < ic)

(* A counter handle behaves like [incr] by name: it creates nothing until
   its first bump and shares the named counter with [incr]. *)
let test_registry_counter_handle () =
  let r = Registry.create () in
  let h = Registry.counter_handle r "msgs" and idle = Registry.counter_handle r "idle" in
  Alcotest.(check (list (pair string int))) "handles create nothing" []
    (Registry.counter_bindings r);
  Registry.add h 2;
  Registry.incr r "msgs";
  Registry.add h 3;
  Alcotest.(check int) "handle and name share the counter" 6 (Registry.counter r "msgs");
  ignore idle;
  Alcotest.(check (list (pair string int))) "only bumped counters exist" [ ("msgs", 6) ]
    (Registry.counter_bindings r)

(* ---- the documented JSON shapes ---- *)

let histogram_fields = [ "count"; "mean"; "min"; "max"; "p50"; "p95"; "p99" ]

let field ~label name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "%s is missing field %S" label name

let parse ~label s =
  match Json.parse s with Ok t -> t | Error e -> Alcotest.failf "%s does not parse: %s" label e

(* A metrics object: exactly its three sections, counters non-negative
   integers in sorted name order, gauges integers, and every histogram
   field numeric. *)
let check_metrics_json j =
  (match j with
  | Json.Obj top -> Alcotest.(check int) "metrics sections" 3 (List.length top)
  | _ -> Alcotest.fail "metrics is not a JSON object");
  (match field ~label:"metrics" "counters" j with
  | Json.Obj cs ->
    List.iter
      (function
        | _, Json.Int n when n >= 0 -> ()
        | name, _ -> Alcotest.failf "counter %S is not a non-negative integer" name)
      cs;
    let names = List.map fst cs in
    Alcotest.(check (list string)) "counters sorted" (List.sort String.compare names) names
  | _ -> Alcotest.fail "\"counters\" is not an object");
  (match field ~label:"metrics" "gauges" j with
  | Json.Obj gs ->
    List.iter (function _, Json.Int _ -> () | name, _ -> Alcotest.failf "gauge %S not int" name) gs
  | _ -> Alcotest.fail "\"gauges\" is not an object");
  match field ~label:"metrics" "histograms" j with
  | Json.Obj hs ->
    List.iter
      (fun (name, h) ->
        List.iter
          (fun f ->
            match field ~label:(Printf.sprintf "histogram %S" name) f h with
            | Json.Int _ | Json.Float _ -> ()
            | _ -> Alcotest.failf "histogram %S field %S is not numeric" name f)
          histogram_fields)
      hs
  | _ -> Alcotest.fail "\"histograms\" is not an object"

(* A span tree: root events and each key group's events are in
   nondecreasing sim time, every event is named from
   [Event.span_names], and every key group has a key.  Returns the txid. *)
let check_span_json j =
  let txid =
    match field ~label:"span" "txid" j with
    | Json.Str s -> s
    | _ -> Alcotest.fail "span \"txid\" is not a string"
  in
  let label = Printf.sprintf "span %s event" txid in
  let event prev ev =
    let at =
      match field ~label "at" ev with
      | Json.Float f -> f
      | Json.Int i -> Float.of_int i
      | _ -> Alcotest.failf "%s \"at\" is not numeric" label
    in
    (match field ~label "node" ev with
    | Json.Int _ -> ()
    | _ -> Alcotest.failf "%s \"node\" not int" label);
    (match field ~label "name" ev with
    | Json.Str s when List.mem s Mdcc_core.Event.span_names -> ()
    | Json.Str s -> Alcotest.failf "%s name %S is not one of Event.span_names" label s
    | _ -> Alcotest.failf "%s \"name\" not a string" label);
    (match field ~label "detail" ev with
    | Json.Str _ -> ()
    | _ -> Alcotest.failf "%s \"detail\" not a string" label);
    if at < prev then
      Alcotest.failf "span %s events out of sim-time order (%.2f after %.2f)" txid at prev;
    at
  in
  let stream evs = ignore (List.fold_left event Float.neg_infinity (Json.to_list evs)) in
  stream (field ~label:"span" "events" j);
  List.iter
    (fun kg ->
      (match field ~label:"key group" "key" kg with
      | Json.Str _ -> ()
      | _ -> Alcotest.failf "span %s key group has no key" txid);
      stream (field ~label:"key group" "events" kg))
    (Json.to_list (field ~label:"span" "keys" j));
  txid

let test_registry_json_shape () =
  let r = Registry.create () in
  Registry.incr r "n";
  Registry.observe r "lat" 5.0;
  match Json.parse (Json.to_string (Registry.to_json r)) with
  | Error e -> Alcotest.failf "registry json does not parse: %s" e
  | Ok t ->
    Alcotest.(check bool) "has counters" true (Json.member "counters" t <> None);
    Alcotest.(check bool) "has gauges" true (Json.member "gauges" t <> None);
    let h =
      match Json.member "histograms" t with
      | Some hs -> Json.member "lat" hs
      | None -> None
    in
    (match h with
    | Some hist ->
      List.iter
        (fun f ->
          Alcotest.(check bool) ("histogram has " ^ f) true (Json.member f hist <> None))
        histogram_fields
    | None -> Alcotest.fail "histogram \"lat\" missing");
    check_metrics_json t

(* Registry.merge edge cases: histogram-name union on empty histograms,
   and gauge last-writer determinism under task-order folding. *)

let test_registry_merge_empty_hist () =
  let src = Registry.create () in
  Registry.ensure_hist src "lat";
  let into = Registry.create () in
  Registry.merge ~into src;
  Alcotest.(check bool) "empty histogram name unions across merge" true
    (List.mem_assoc "lat" (Registry.hist_bindings into));
  Alcotest.(check int) "still no samples" 0 (Registry.hist_count into "lat");
  (* Samples observed after the union land in the pre-created cell. *)
  Registry.observe into "lat" 3.0;
  Alcotest.(check int) "observable after union" 1 (Registry.hist_count into "lat")

let test_registry_merge_gauge_order () =
  let task value =
    let r = Registry.create () in
    Registry.set_gauge r "g" value;
    Registry.incr r ~by:value "c";
    r
  in
  let fold srcs =
    let into = Registry.create () in
    List.iter (fun src -> Registry.merge ~into src) srcs;
    into
  in
  let ab = fold [ task 1; task 2 ] and ba = fold [ task 2; task 1 ] in
  (* Gauges are last-writer-wins in *task order* — the fold order, not
     the domain schedule — so the merged value is a pure function of the
     task list. *)
  Alcotest.(check int) "gauge takes the later task's value" 2 (Registry.gauge ab "g");
  Alcotest.(check int) "reversed task order, reversed winner" 1 (Registry.gauge ba "g");
  Alcotest.(check int) "counters sum regardless of order" 3 (Registry.counter ab "c");
  Alcotest.(check int) "counters sum regardless of order (rev)" 3 (Registry.counter ba "c");
  let again = fold [ task 1; task 2 ] in
  Alcotest.(check string) "same task order renders byte-identically"
    (Json.to_string (Registry.to_json ab))
    (Json.to_string (Registry.to_json again))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let test_prometheus_render () =
  let r = Registry.create () in
  Registry.incr r ~by:5 "wire.cmd.get";
  Registry.set_gauge r "depth" 3;
  Registry.observe r "lat" 0.05;
  Registry.observe r "lat" 2.0;
  Registry.observe r "lat" 5000.0;
  let s = Prometheus.render r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle) true
        (contains ~needle s))
    [
      "# TYPE mdcc_wire_cmd_get_total counter";
      "mdcc_wire_cmd_get_total 5\n";
      "# TYPE mdcc_depth gauge";
      "mdcc_depth 3\n";
      "# TYPE mdcc_lat histogram";
      (* cumulative buckets: 0.05 <= 0.1; 2.0 joins at le=5; +Inf sees all *)
      "mdcc_lat_bucket{le=\"0.1\"} 1\n";
      "mdcc_lat_bucket{le=\"5\"} 2\n";
      "mdcc_lat_bucket{le=\"1000\"} 2\n";
      "mdcc_lat_bucket{le=\"+Inf\"} 3\n";
      "mdcc_lat_sum ";
      "mdcc_lat_count 3\n";
    ];
  (* Kinds render counters -> gauges -> histograms, each kind's families
     in sorted metric-name order, deterministically. *)
  Registry.incr r ~by:1 "another.counter";
  let s = Prometheus.render r in
  let ia = index_of ~needle:"mdcc_another_counter_total" s
  and iw = index_of ~needle:"mdcc_wire_cmd_get_total" s
  and id = index_of ~needle:"mdcc_depth" s
  and il = index_of ~needle:"mdcc_lat" s in
  Alcotest.(check bool) "counters sorted within the kind" true (ia >= 0 && ia < iw);
  Alcotest.(check bool) "counters before gauges before histograms" true
    (iw < id && id < il);
  Alcotest.(check string) "byte-identical re-render" s (Prometheus.render r)

let test_prometheus_escaping () =
  Alcotest.(check string) "metric name sanitized" "mdcc_wire_cmd_get"
    (Prometheus.metric_name "wire.cmd-get");
  Alcotest.(check string) "help escapes backslash and newline" "a\\\\b\\nc"
    (Prometheus.escape_help "a\\b\nc");
  (* Keys that collide after sanitization combine rather than emitting an
     illegal duplicate family. *)
  let r = Registry.create () in
  Registry.incr r ~by:1 "a.b";
  Registry.incr r ~by:2 "a_b";
  let s = Prometheus.render r in
  Alcotest.(check bool) "colliding keys sum into one family" true
    (contains ~needle:"mdcc_a_b_total 3\n" s)

(* ------------------------------------------------------------------ *)
(* Profiler                                                            *)
(* ------------------------------------------------------------------ *)

let test_prof_spans () =
  let p = Prof.create () in
  Prof.set_enabled p true;
  let v =
    Prof.span_in p "outer" (fun () ->
        Prof.span_in p "inner" (fun () -> ());
        Prof.span_in p "inner" (fun () -> ());
        Prof.count_in p ~by:3 "widgets";
        42)
  in
  Alcotest.(check int) "span is transparent to the result" 42 v;
  let s = Prof.capture p in
  Alcotest.(check (list string))
    "hierarchical paths, sorted" [ "outer"; "outer/inner" ]
    (List.map (fun ph -> ph.Prof.ph_path) s.Prof.sn_phases);
  let find path = List.find (fun ph -> String.equal ph.Prof.ph_path path) s.Prof.sn_phases in
  Alcotest.(check int) "outer entered once" 1 (find "outer").Prof.ph_count;
  Alcotest.(check int) "inner entered twice" 2 (find "outer/inner").Prof.ph_count;
  Alcotest.(check bool) "inclusive wall nests" true
    ((find "outer").Prof.ph_wall_ms >= (find "outer/inner").Prof.ph_wall_ms);
  Alcotest.(check bool) "self time clamped non-negative" true
    (List.for_all (fun ph -> ph.Prof.ph_self_ms >= 0.0) s.Prof.sn_phases);
  Alcotest.(check (list (pair string int))) "counters" [ ("widgets", 3) ] s.Prof.sn_counters

let test_prof_disabled_is_noop () =
  let p = Prof.create () in
  Alcotest.(check bool) "fresh handle disabled" false (Prof.enabled p);
  let v = Prof.span_in p "outer" (fun () -> Prof.count_in p "c"; 9) in
  Alcotest.(check int) "body still runs" 9 v;
  let s = Prof.capture p in
  Alcotest.(check int) "no phases recorded" 0 (List.length s.Prof.sn_phases);
  Alcotest.(check int) "no counters recorded" 0 (List.length s.Prof.sn_counters)

let test_prof_with_task_and_merge () =
  let task n =
    snd
      (Prof.with_task (fun () ->
           Prof.span "work" (fun () -> Sys.opaque_identity (List.init 100 Fun.id) |> ignore);
           Prof.count ~by:n "items"))
  in
  let a = task 2 and b = task 5 in
  Alcotest.(check bool) "ambient restored to disabled" false (Prof.enabled_ambient ());
  Alcotest.(check bool) "task snapshot includes gc counters" true
    (List.mem_assoc "gc.minor_collections" a.Prof.sn_counters);
  let merged = Prof.merge a b in
  let work = List.find (fun ph -> String.equal ph.Prof.ph_path "work") merged.Prof.sn_phases in
  Alcotest.(check int) "phase counts sum across tasks" 2 work.Prof.ph_count;
  Alcotest.(check int) "counters sum across tasks" 7 (List.assoc "items" merged.Prof.sn_counters);
  Alcotest.(check bool) "merge with empty is identity on phases" true
    (Prof.merge Prof.empty_snapshot a = a);
  Alcotest.(check bool) "attributed time is the self-time sum" true
    (Prof.attributed_ms merged >= Prof.attributed_ms a)

(* A profiled pool map brings every domain's work home: the groups'
   spans land under the caller's open span, counters sum, the pool
   counts one task per group of [max 1 (n / (jobs * 8))] elements, and
   gc.* is the outer bracket's alone.  With the profiler off it records
   nothing. *)
let test_prof_map_list () =
  let work x =
    Prof.span "item" (fun () -> Prof.count ~by:x "items");
    x * 2
  in
  let n = 40 and jobs = 2 in
  let xs = List.init n Fun.id in
  let group = max 1 (n / (jobs * 8)) in
  Alcotest.(check (list int)) "off: plain map" (List.map (fun x -> x * 2) xs)
    (Prof.map_list ~jobs xs ~f:work);
  let ys, s =
    Prof.with_task (fun () ->
        Prof.span "outer" (fun () -> Prof.map_list ~jobs xs ~f:work))
  in
  Alcotest.(check (list int)) "on: same results" (List.map (fun x -> x * 2) xs) ys;
  let count path =
    match List.find_opt (fun ph -> String.equal ph.Prof.ph_path path) s.Prof.sn_phases with
    | Some ph -> ph.Prof.ph_count
    | None -> 0
  in
  Alcotest.(check int) "one span per item, under the caller's span" n (count "outer/item");
  Alcotest.(check int) "no span outside it" 0 (count "item");
  Alcotest.(check int) "counters sum" (n * (n - 1) / 2) (List.assoc "items" s.Prof.sn_counters);
  Alcotest.(check int) "one pool task per group" ((n + group - 1) / group)
    (List.assoc "pool.tasks" s.Prof.sn_counters);
  Alcotest.(check int) "one pool batch" 1 (List.assoc "pool.batches" s.Prof.sn_counters);
  Alcotest.(check int) "gc counted once" 1
    (List.length
       (List.filter (fun (k, _) -> String.equal k "gc.minor_collections") s.Prof.sn_counters));
  Alcotest.(check bool) "ambient restored to disabled" false (Prof.enabled_ambient ())

(* --profile must be a pure side channel: the profiled sweep's reports and
   obs export render byte-identically to the unprofiled sweep's. *)
let test_profile_byte_identity () =
  let specs = Sweep.specs ~seeds:2 ~scenarios:[ Nemesis.clean ] () in
  let render rs =
    String.concat "\n" (List.map Runner.report_to_json rs)
    ^ "\n"
    ^ Json.to_string (Sweep.obs_doc rs)
  in
  let plain = Sweep.run ~jobs:2 specs in
  let profiled, snapshot = Sweep.run_profiled ~jobs:2 specs in
  Alcotest.(check string) "reports identical with and without --profile" (render plain)
    (render profiled);
  let run_one =
    List.find
      (fun ph -> String.equal ph.Prof.ph_path "sweep.run_one")
      snapshot.Prof.sn_phases
  in
  Alcotest.(check int) "one profiled span per run" (List.length specs) run_one.Prof.ph_count;
  Alcotest.(check int) "pool task counter merged in" (List.length specs)
    (List.assoc "pool.tasks" snapshot.Prof.sn_counters);
  Alcotest.(check bool) "some wall time attributed" true (Prof.attributed_ms snapshot > 0.0)

(* ------------------------------------------------------------------ *)
(* Span                                                                *)
(* ------------------------------------------------------------------ *)

let test_span_basics () =
  let s = Span.create () in
  Span.begin_txn s ~txid:"t1" ~at:1.0;
  Span.event s ~txid:"t1" ~at:2.0 ~node:5 ~name:"propose" ~detail:"fast" ();
  Span.event s ~txid:"t1" ~at:3.0 ~node:0 ~name:"vote" ~key:"item/1" ~detail:"fast acc" ();
  Span.event s ~txid:"t2" ~at:9.0 ~node:1 ~name:"learn" ~detail:"accepted" ();
  Alcotest.(check (list string)) "txids sorted" [ "t1"; "t2" ] (Span.txids s);
  let evs = Span.events s ~txid:"t1" in
  Alcotest.(check int) "two events" 2 (List.length evs);
  Alcotest.(check string) "append order" "propose" (List.hd evs).Span.ev_name;
  Alcotest.(check (list string)) "unknown txid empty" []
    (List.map (fun e -> e.Span.ev_name) (Span.events s ~txid:"zzz"))

(* The span fold's detail strings are constants; each must equal what the
   renderers they replaced produced, so span documents do not move. *)
let test_span_strings_match_renderers () =
  let module Event = Mdcc_core.Event in
  let module Txn = Mdcc_storage.Txn in
  let module Acceptor = Mdcc_core.Acceptor in
  let module Woption = Mdcc_core.Woption in
  List.iter
    (fun o ->
      let rendered = Format.asprintf "%a" Txn.pp_outcome o in
      Alcotest.(check string) rendered rendered (Event.outcome_string o))
    Txn.
      [
        Committed;
        Aborted Conflict;
        Aborted Constraint_violation;
      ];
  List.iter
    (fun reason ->
      Alcotest.(check string) "fast vote"
        ("fast " ^ Event.fast_verdict reason)
        (Event.vote_detail (Event.Fast reason)))
    Acceptor.[ None; Some Version_validation; Some Outstanding_option; Some Demarcation ];
  List.iter
    (fun (decision, short) ->
      Alcotest.(check string) "classic vote" ("classic " ^ short)
        (Event.vote_detail (Event.Classic decision)))
    [ (Woption.Accepted, "acc"); (Woption.Rejected, "rej") ]

let test_span_json_groups_keys () =
  let s = Span.create () in
  Span.begin_txn s ~txid:"t1" ~at:1.0;
  Span.event s ~txid:"t1" ~at:2.0 ~node:5 ~name:"propose" ~detail:"fast" ();
  Span.event s ~txid:"t1" ~at:3.0 ~node:0 ~name:"vote" ~key:"b" ~detail:"acc" ();
  Span.event s ~txid:"t1" ~at:3.5 ~node:1 ~name:"vote" ~key:"a" ~detail:"acc" ();
  let j = match Span.to_json s with Json.List [ j ] -> j | _ -> Json.Null in
  Alcotest.(check bool) "txid field" true (Json.member "txid" j = Some (Json.Str "t1"));
  Alcotest.(check bool) "begin field" true (Json.member "begin" j = Some (Json.Float 1.0));
  let keys =
    match Json.member "keys" j with
    | Some ks ->
      List.filter_map (fun k -> Json.member "key" k) (Json.to_list ks)
    | None -> []
  in
  Alcotest.(check bool) "keys sorted" true (keys = [ Json.Str "a"; Json.Str "b" ])

(* ------------------------------------------------------------------ *)
(* Trace sinks                                                         *)
(* ------------------------------------------------------------------ *)

(* A trace sink is a [Ctx] value: a context holding nothing but a sink is
   live, and through [Cluster.create] its lines carry the engine clock. *)
let test_trace_line_sink () =
  let module Ctx = Mdcc_core.Ctx in
  let module Cluster = Mdcc_core.Cluster in
  let lines = ref [] in
  let engine = Engine.create ~seed:1 in
  let cluster =
    Cluster.create ~engine ~spec:Cluster.Spec.default
      ~ctx:(Ctx.make ~obs:(Obs.create ()) ~trace:(fun l -> lines := l :: !lines) ())
      ~config:(Mdcc_core.Config.make ~replication:5 ())
      ~schema:(Mdcc_storage.Schema.create []) ()
  in
  let s = Cluster.stream cluster in
  Alcotest.(check bool) "a trace sink alone is live" true (Ctx.live s);
  let v = { Mdcc_util.Invariant.node = Some 3; context = "t_obs"; message = "hello 42" } in
  ignore (Engine.schedule_at engine ~at:1.5 (fun () -> Ctx.emit s (Mdcc_core.Event.Violation v)));
  Engine.run ~until:10.0 engine;
  Alcotest.(check (list string))
    "one line at the engine clock"
    [ "[      1.50] invariant    invariant violation at node3 in t_obs: hello 42" ]
    !lines

(* A cluster built without a context owns a private registry: two on one
   domain count apart. *)
let test_default_cluster_owns_registry () =
  let module Cluster = Mdcc_core.Cluster in
  let engine, first = Helpers.make_cluster ~items:1 () in
  let _, second = Helpers.make_cluster ~items:1 () in
  Alcotest.(check bool) "distinct handles" false (Cluster.obs first == Cluster.obs second);
  let outcome =
    Helpers.run_txn engine first ~dc:0
      [ (Helpers.item 0, Mdcc_storage.Update.Delta [ ("stock", -1) ]) ]
  in
  Alcotest.(check bool) "committed" true (Helpers.is_committed outcome);
  let fast c = Registry.counter (Obs.registry (Cluster.obs c)) "fast_commit" in
  Alcotest.(check int) "the first counts its commit" 1 (fast first);
  Alcotest.(check int) "the second counts nothing" 0 (fast second)

(* Without a sink nothing traces: the runtime says so, and a cluster
   whose context has no consumer at all has a stream that is not live. *)
let test_untraced_runtime () =
  let module Cluster = Mdcc_core.Cluster in
  let engine = Engine.create ~seed:1 in
  let _, net = Cluster.scaffold ~engine ~spec:Cluster.Spec.default in
  Alcotest.(check bool) "of_network without a sink" false
    (Mdcc_core.Runtime.tracing (Mdcc_core.Runtime.of_network net));
  let cluster =
    Cluster.create ~engine:(Engine.create ~seed:1) ~spec:Cluster.Spec.default
      ~ctx:(Mdcc_core.Ctx.make ~obs:(Obs.create ()) ())
      ~config:(Mdcc_core.Config.make ~replication:5 ())
      ~schema:(Mdcc_storage.Schema.create []) ()
  in
  Alcotest.(check bool) "cluster stream not live" false
    (Mdcc_core.Ctx.live (Cluster.stream cluster))

(* The event stream feeds the history and the span store while line
   tracing is off — collectors must not force verbose logging on — and a
   stream with no consumer is not live. *)
let test_event_stream_without_tracing () =
  let module Ctx = Mdcc_core.Ctx in
  let module Event = Mdcc_core.Event in
  let module History = Mdcc_core.History in
  let runtime = (Helpers.silent_runtime ()).Helpers.runtime in
  let quiet = Ctx.stream (Ctx.make ~obs:(Obs.create ()) ()) runtime ~node:3 in
  Alcotest.(check bool) "no consumer, not live" false (Ctx.live quiet);
  let history = History.create () and obs = Obs.create ~spans:true () in
  let s = Ctx.stream (Ctx.make ~history ~obs ()) runtime ~node:3 in
  Alcotest.(check bool) "live" true (Ctx.live s);
  let key = Mdcc_storage.Key.make ~table:"item" ~id:"1" in
  Ctx.emit s (Event.Voted { txid = "t1"; key; vote = Event.Fast None });
  Ctx.emit s (Event.Decided { txid = "t1"; outcome = Mdcc_storage.Txn.Committed });
  (match History.events history with
  | [ { History.at; node; event = Event.Decided { txid; _ } } ] ->
    Alcotest.(check (float 0.0)) "stamped with the runtime clock" 0.0 at;
    Alcotest.(check int) "stamped with the node" 3 node;
    Alcotest.(check string) "decided txid" "t1" txid
  | es -> Alcotest.failf "expected the decision alone in the history, got %d" (List.length es));
  let sp = Option.get (Obs.spans obs) in
  Alcotest.(check (list (pair string string)))
    "span events"
    [ ("vote", "fast acc"); ("decide", "committed") ]
    (List.map (fun e -> (e.Span.ev_name, e.Span.ev_detail)) (Span.events sp ~txid:"t1"))

(* ------------------------------------------------------------------ *)
(* Acceptance: the chaos run contract                                  *)
(* ------------------------------------------------------------------ *)

let acceptance_spec = Runner.spec ~seed:1 ~scenario:Nemesis.clean ~workload:Runner.Mixed ()

let acceptance = lazy (Runner.run acceptance_spec)

let counter_of report name =
  match Json.member "counters" (Obs.metrics_json report.Runner.r_obs) with
  | Some cs -> ( match Json.member name cs with Some (Json.Int n) -> n | _ -> 0)
  | None -> 0

(* The run's metrics render to the documented shape, and parsing then
   rendering them gives back the same bytes: the schema has one canonical
   form. *)
let test_chaos_counters () =
  let r = Lazy.force acceptance in
  Alcotest.(check bool) "run is clean" true (Runner.ok r);
  Alcotest.(check bool) "fast commits happened" true (counter_of r "fast_commit" > 0);
  Alcotest.(check bool) "collisions were resolved" true (counter_of r "collision_resolved" > 0);
  let rendered = Json.to_string (Obs.metrics_json r.Runner.r_obs) in
  let metrics = parse ~label:"metrics" rendered in
  check_metrics_json metrics;
  Alcotest.(check string) "metrics render(parse(s)) = s" rendered (Json.to_string metrics)

let test_chaos_span_ordering () =
  let r = Lazy.force acceptance in
  let spans =
    match Obs.spans r.Runner.r_obs with
    | Some s -> s
    | None -> Alcotest.fail "chaos run has no span store"
  in
  let txids = Span.txids spans in
  Alcotest.(check bool) "every submitted txn has a span" true
    (List.length txids >= r.Runner.r_submitted);
  List.iter
    (fun txid ->
      let evs = Span.events spans ~txid in
      Alcotest.(check bool) (txid ^ " has events") true (evs <> []);
      ignore
        (List.fold_left
           (fun prev ev ->
             if ev.Span.ev_at < prev then
               Alcotest.failf "span %s out of sim-time order (%.2f after %.2f)" txid
                 ev.Span.ev_at prev;
             ev.Span.ev_at)
           Float.neg_infinity evs))
    txids;
  let rendered = Json.to_string (Obs.spans_json r.Runner.r_obs) in
  let spans = parse ~label:"spans" rendered in
  let trees = List.map check_span_json (Json.to_list spans) in
  Alcotest.(check bool) "span trees rendered" true (trees <> []);
  Alcotest.(check string) "spans render(parse(s)) = s" rendered (Json.to_string spans)

let report_fields =
  [ "seed"; "scenario"; "submitted"; "committed"; "aborted"; "undecided"; "events";
    "schedule"; "violations"; "trace"; "metrics"; "spans" ]

(* [Runner.report_to_json] of a run with a fault schedule and a captured
   trace: the fields in order, each of its documented type, and a parse
   and render back to the same bytes.  Clean runs report no violation, so
   one is spliced in, with characters JSON must escape. *)
let test_report_json () =
  let faulty =
    Runner.run (Runner.spec ~seed:1 ~scenario:Nemesis.torn_broadcast ~capture_trace:true ())
  in
  Alcotest.(check bool) "trace captured" true (faulty.Runner.r_trace <> []);
  let rendered =
    Runner.report_to_json
      {
        faulty with
        Runner.r_violations =
          [ { Mdcc_chaos.Checker.invariant = "liveness"; detail = "\"quoted\"\ttab\nline" } ];
      }
  in
  let j = parse ~label:"report" rendered in
  let names = match j with Json.Obj fields -> List.map fst fields | _ -> [] in
  Alcotest.(check (list string)) "report fields" report_fields names;
  let is_int ~label name j =
    match field ~label name j with
    | Json.Int _ -> ()
    | _ -> Alcotest.failf "%s %S is not an integer" label name
  in
  let is_str ~label name j =
    match field ~label name j with
    | Json.Str _ -> ()
    | _ -> Alcotest.failf "%s %S is not a string" label name
  in
  List.iter (fun name -> is_int ~label:"report" name j)
    [ "seed"; "submitted"; "committed"; "aborted"; "undecided"; "events" ];
  is_str ~label:"report" "scenario" j;
  List.iter
    (fun f ->
      (match field ~label:"schedule entry" "at" f with
      | Json.Float _ -> ()
      | _ -> Alcotest.fail "schedule entry \"at\" is not a float");
      is_str ~label:"schedule entry" "fault" f)
    (Json.to_list (field ~label:"report" "schedule" j));
  List.iter
    (fun v ->
      is_str ~label:"violation" "invariant" v;
      is_str ~label:"violation" "detail" v)
    (Json.to_list (field ~label:"report" "violations" j));
  List.iter
    (function Json.Str _ -> () | _ -> Alcotest.fail "trace line is not a string")
    (Json.to_list (field ~label:"report" "trace" j));
  check_metrics_json (field ~label:"report" "metrics" j);
  List.iter
    (fun span -> ignore (check_span_json span))
    (Json.to_list (field ~label:"report" "spans" j));
  Alcotest.(check string) "report render(parse(s)) = s" rendered (Json.to_string j)

let test_chaos_obs_determinism () =
  let render () =
    let r = Runner.run acceptance_spec in
    Json.to_string (Obs.metrics_json r.Runner.r_obs)
    ^ "\n"
    ^ Json.to_string (Obs.spans_json r.Runner.r_obs)
  in
  Alcotest.(check string) "byte-identical metrics+span JSON" (render ()) (render ())

let suite =
  [
    Alcotest.test_case "registry counter handle" `Quick test_registry_counter_handle;
    Alcotest.test_case "json render" `Quick test_json_render;
    Alcotest.test_case "json float forms" `Quick test_json_float_forms;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json member" `Quick test_json_member;
    Alcotest.test_case "registry counters and gauges" `Quick test_registry_counters_gauges;
    Alcotest.test_case "registry json shape" `Quick test_registry_json_shape;
    Alcotest.test_case "registry merge: empty-histogram union" `Quick test_registry_merge_empty_hist;
    Alcotest.test_case "registry merge: gauge task order" `Quick test_registry_merge_gauge_order;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus_render;
    Alcotest.test_case "prometheus escaping" `Quick test_prometheus_escaping;
    Alcotest.test_case "profiler span hierarchy" `Quick test_prof_spans;
    Alcotest.test_case "profiler disabled is a no-op" `Quick test_prof_disabled_is_noop;
    Alcotest.test_case "profiler with_task and merge" `Quick test_prof_with_task_and_merge;
    Alcotest.test_case "profiler map_list folds worker domains" `Quick test_prof_map_list;
    Alcotest.test_case "--profile byte identity" `Quick test_profile_byte_identity;
    Alcotest.test_case "span basics" `Quick test_span_basics;
    Alcotest.test_case "span json key groups" `Quick test_span_json_groups_keys;
    Alcotest.test_case "span strings match old renderers" `Quick test_span_strings_match_renderers;
    Alcotest.test_case "trace line sink" `Quick test_trace_line_sink;
    Alcotest.test_case "runtime without a sink does not trace" `Quick test_untraced_runtime;
    Alcotest.test_case "default-built clusters own their registries" `Quick
      test_default_cluster_owns_registry;
    Alcotest.test_case "event stream without tracing" `Quick test_event_stream_without_tracing;
    Alcotest.test_case "chaos run counters" `Quick test_chaos_counters;
    Alcotest.test_case "chaos span ordering" `Quick test_chaos_span_ordering;
    Alcotest.test_case "chaos obs determinism" `Quick test_chaos_obs_determinism;
    Alcotest.test_case "run report json shape" `Quick test_report_json;
  ]
