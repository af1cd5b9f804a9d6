(* Round-trips the observability JSON schemas through the parser.

   Runs a small deterministic chaos run (spans enabled), renders its metrics
   snapshot and span trees, parses both back with Mdcc_obs.Json, and
   validates the documented shapes plus the protocol-level invariants the
   schemas promise: counters are non-negative integers, every span event is
   named from the event stream's span-name list (Mdcc_core.Event.span_names),
   every span's events are in nondecreasing sim-time order, and the
   fast-commutative workload actually exercised both the fast path and
   collision resolution.  The whole run report (Runner.report_to_json) of
   a faulted, traced run goes through the same round trip, field by field.
   Attached to the @obs alias (and through it @runtest) so schema drift
   fails the build. *)

module Runner = Mdcc_chaos.Runner
module Nemesis = Mdcc_chaos.Nemesis
module Obs = Mdcc_obs.Obs
module Json = Mdcc_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("obs_check: FAIL: " ^ s); exit 1) fmt

let parse_or_die ~label s =
  match Json.parse s with Ok t -> t | Error e -> fail "%s does not parse: %s" label e

let obj_or_die ~label = function
  | Json.Obj fields -> fields
  | _ -> fail "%s is not a JSON object" label

let get ~label name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "%s is missing field %S" label name

(* ---- metrics schema ---- *)

let check_metrics j =
  let top = obj_or_die ~label:"metrics" j in
  if List.length top <> 3 then fail "metrics object must have exactly 3 sections";
  (match get ~label:"metrics" "counters" j with
  | Json.Obj cs ->
    List.iter
      (function
        | _, Json.Int n when n >= 0 -> ()
        | name, Json.Int n -> fail "counter %S is negative (%d)" name n
        | name, _ -> fail "counter %S is not an integer" name)
      cs;
    let names = List.map fst cs in
    if List.sort String.compare names <> names then fail "counter names are not sorted"
  | _ -> fail "\"counters\" is not an object");
  (match get ~label:"metrics" "gauges" j with
  | Json.Obj gs ->
    List.iter (function _, Json.Int _ -> () | name, _ -> fail "gauge %S not int" name) gs
  | _ -> fail "\"gauges\" is not an object");
  match get ~label:"metrics" "histograms" j with
  | Json.Obj hs ->
    List.iter
      (fun (name, h) ->
        List.iter
          (fun field ->
            match get ~label:(Printf.sprintf "histogram %S" name) field h with
            | Json.Int _ | Json.Float _ -> ()
            | _ -> fail "histogram %S field %S is not numeric" name field)
          [ "count"; "mean"; "min"; "max"; "p50"; "p95"; "p99" ])
      hs
  | _ -> fail "\"histograms\" is not an object"

(* ---- span schema ---- *)

let check_event ~txid ~prev_at ev =
  let label = Printf.sprintf "span %s event" txid in
  let at =
    match get ~label "at" ev with
    | Json.Float f -> f
    | Json.Int i -> Float.of_int i
    | _ -> fail "%s \"at\" is not numeric" label
  in
  (match get ~label "node" ev with Json.Int _ -> () | _ -> fail "%s \"node\" not int" label);
  (match get ~label "name" ev with
  | Json.Str s when List.mem s Mdcc_core.Event.span_names -> ()
  | Json.Str s -> fail "%s name %S is not one of Event.span_names" label s
  | _ -> fail "%s \"name\" not a string" label);
  (match get ~label "detail" ev with Json.Str _ -> () | _ -> fail "%s \"detail\" not str" label);
  if at < prev_at then
    fail "span %s events out of sim-time order (%.2f after %.2f)" txid at prev_at;
  at

let check_span j =
  let txid =
    match get ~label:"span" "txid" j with
    | Json.Str s -> s
    | _ -> fail "span \"txid\" is not a string"
  in
  (* Root events and each key group are independently time-ordered. *)
  let check_stream evs =
    ignore (List.fold_left (fun prev ev -> check_event ~txid ~prev_at:prev ev) Float.neg_infinity evs)
  in
  check_stream (Json.to_list (get ~label:"span" "events" j));
  List.iter
    (fun kg ->
      (match get ~label:"key group" "key" kg with
      | Json.Str _ -> ()
      | _ -> fail "span %s key group has no key" txid);
      check_stream (Json.to_list (get ~label:"key group" "events" kg)))
    (Json.to_list (get ~label:"span" "keys" j));
  txid

(* ---- run report schema ---- *)

let report_fields =
  [ "seed"; "scenario"; "submitted"; "committed"; "aborted"; "undecided"; "events";
    "schedule"; "violations"; "trace"; "metrics"; "spans" ]

(* [Runner.report_to_json]: the fields in order, each of its documented
   type, and a parse/render round trip back to the same bytes. *)
let check_report r =
  let s = Runner.report_to_json r in
  let j = parse_or_die ~label:"report" s in
  let names = List.map fst (obj_or_die ~label:"report" j) in
  if names <> report_fields then
    fail "report fields are [%s], expected [%s]" (String.concat "," names)
      (String.concat "," report_fields);
  let is_int ~label name j =
    match get ~label name j with Json.Int _ -> () | _ -> fail "%s %S is not an integer" label name
  in
  let is_str ~label name j =
    match get ~label name j with Json.Str _ -> () | _ -> fail "%s %S is not a string" label name
  in
  List.iter (fun name -> is_int ~label:"report" name j)
    [ "seed"; "submitted"; "committed"; "aborted"; "undecided"; "events" ];
  is_str ~label:"report" "scenario" j;
  List.iter
    (fun f ->
      (match get ~label:"schedule entry" "at" f with
      | Json.Float _ -> ()
      | _ -> fail "schedule entry \"at\" is not a float");
      is_str ~label:"schedule entry" "fault" f)
    (Json.to_list (get ~label:"report" "schedule" j));
  List.iter
    (fun v ->
      is_str ~label:"violation" "invariant" v;
      is_str ~label:"violation" "detail" v)
    (Json.to_list (get ~label:"report" "violations" j));
  List.iter
    (function Json.Str _ -> () | _ -> fail "trace line is not a string")
    (Json.to_list (get ~label:"report" "trace" j));
  check_metrics (get ~label:"report" "metrics" j);
  List.iter (fun span -> ignore (check_span span)) (Json.to_list (get ~label:"report" "spans" j));
  if Json.to_string j <> s then fail "report render/parse not idempotent"

(* ---- the run ---- *)

let () =
  let seed = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 1 in
  let spec = Runner.spec ~seed ~scenario:Nemesis.clean ~workload:Runner.Mixed ~txns:40 () in
  let r = Runner.run spec in
  if not (Runner.ok r) then fail "seed %d violated invariants" seed;
  let metrics_str = Json.to_string (Obs.metrics_json r.Runner.r_obs) in
  let spans_str = Json.to_string (Obs.spans_json r.Runner.r_obs) in
  (* Round trip both documents. *)
  let metrics = parse_or_die ~label:"metrics" metrics_str in
  let spans = parse_or_die ~label:"spans" spans_str in
  check_metrics metrics;
  let txids = List.map check_span (Json.to_list spans) in
  if txids = [] then fail "no span trees recorded";
  (* The fast-commutative workload must exercise the protocol's two
     signature paths: fast commits, and collision detection + resolution. *)
  let counter name =
    match Json.member "counters" metrics with
    | Some cs -> ( match Json.member name cs with Some (Json.Int n) -> n | _ -> 0)
    | None -> 0
  in
  if counter "fast_commit" = 0 then fail "seed %d: no fast commits" seed;
  if counter "collision_resolved" = 0 then fail "seed %d: no resolved collisions" seed;
  (* Re-render from the parsed tree: parse . render must be the identity on
     rendered output (the schema has one canonical form). *)
  if Json.to_string metrics <> metrics_str then fail "metrics render/parse not idempotent";
  if Json.to_string spans <> spans_str then fail "spans render/parse not idempotent";
  (* The run report, on a run with a fault schedule and a captured trace;
     clean runs report no violations, so one is spliced in (with
     characters JSON must escape). *)
  let faulty =
    Runner.run (Runner.spec ~seed ~scenario:Nemesis.torn_broadcast ~capture_trace:true ())
  in
  if faulty.Runner.r_trace = [] then fail "seed %d: no trace captured" seed;
  check_report
    {
      faulty with
      Runner.r_violations =
        [ { Mdcc_chaos.Checker.invariant = "liveness"; detail = "\"quoted\"\ttab\nline" } ];
    };
  Printf.printf
    "obs_check: ok (seed %d: %d committed, fast_commit=%d collision_resolved=%d, %d spans)\n"
    seed r.Runner.r_committed (counter "fast_commit") (counter "collision_resolved")
    (List.length txids)
