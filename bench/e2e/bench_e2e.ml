(* bench_e2e: the end-to-end benchmark (see README.md beside this file).

     bench_e2e.exe run --seed 1 --out bench/e2e/BENCH_e2e.json
     bench_e2e.exe run --seed 1 --trace
     bench_e2e.exe compare A.json B.json
     bench_e2e.exe measure --workload tpcw --seed 1 --seconds 20 --trace 0
     bench_e2e.exe smoke --benchmark BENCHMARK.json

   [measure] runs one workload and prints [workload metric value unit]
   lines followed by one JSON result line; [run] does that for every
   workload (and several seeds) and writes the set as one JSON file.  Each
   repetition of a workload runs in a fresh child process ([rep]), so heap
   and GC state never leak between repetitions or workloads. *)

module Json = Mdcc_obs.Json

let default_seconds = 20.0

(* ------------------------------------------------------------------ *)
(* Repetitions in child processes                                       *)
(* ------------------------------------------------------------------ *)

let rec waitpid pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (EINTR, _, _) -> waitpid pid

(* Run this executable with [args]; its standard output is one [Rep]. *)
let spawn args =
  let exe = Sys.executable_name in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match waitpid pid with
  | Unix.WEXITED 0 -> (
    match Json.parse (String.trim out) with
    | Ok j -> Ok (Rep.of_json j)
    | Error e -> Error ("unreadable repetition output: " ^ e))
  | Unix.WEXITED n -> Error (Printf.sprintf "repetition exited with code %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> Error (Printf.sprintf "repetition killed by signal %d" n)

(* ------------------------------------------------------------------ *)
(* One measured run of one workload                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  workload : string;
  correct : bool;
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (Catalog.metric * float) list;  (* the values this run reports *)
  extra : (Catalog.metric * float) list;
      (* per-layer metrics the untraced repetitions also measure *)
  info : (string * Json.t) list;
}

let rep_args ~workload ~seed ~seconds ~scale ~index ~traced ~ladder =
  [ "rep"; "--workload"; workload; "--seed"; string_of_int seed; "--index"; string_of_int index;
    "--seconds"; Printf.sprintf "%g" seconds ]
  @ (if traced then [ "--traced" ] else [])
  @ (if ladder then [ "--ladder" ] else [])
  @ if scale = Workloads.Toy then [ "--toy" ] else []

exception Rep_failed of string

let get = function Ok r -> r | Error e -> raise (Rep_failed e)

(* Untraced: the workload's repetitions, each metric the median over them.
   Traced: one untraced and one traced repetition of the same inputs.  A
   per-layer metric the untraced repetition measures (counters, the wire
   rate ladder, latency) is taken from it; the traced one supplies what
   only tracing can measure.  Every deterministic result must agree
   between the two. *)
let measure ~workload ~seed ~seconds ~trace ~scale =
  let run ~index ~traced ~ladder =
    get (spawn (rep_args ~workload ~seed ~seconds ~scale ~index ~traced ~ladder))
  in
  let label i (r : Rep.t) = List.map (Printf.sprintf "repetition %d: %s" i) r.Rep.errors in
  if not trace then begin
    let reps =
      List.init (Workloads.reps workload ~seconds ~scale) (fun index ->
          run ~index ~traced:false ~ladder:false)
    in
    let errors = List.concat (List.mapi label reps) in
    let median (m : Catalog.metric) =
      match List.filter_map (fun r -> Rep.value r m.Catalog.name) reps with
      | [] -> None
      | vs -> Some (m, Measure.median vs)
    in
    {
      workload;
      correct = errors = [];
      attempted = List.fold_left (fun acc r -> acc + r.Rep.attempted) 0 reps;
      failed = List.fold_left (fun acc r -> acc + r.Rep.failed) 0 reps;
      errors;
      metrics = List.filter_map median Catalog.end_to_end;
      extra = List.filter_map median Catalog.per_layer;
      info = List.mapi (fun i r -> (string_of_int i, Json.Obj r.Rep.info)) reps;
    }
  end
  else begin
    let plain = run ~index:0 ~traced:false ~ladder:true in
    let traced = run ~index:0 ~traced:true ~ladder:false in
    let drift =
      List.filter_map
        (fun (k, v) ->
          match List.assoc_opt k traced.Rep.det with
          | Some v' when Float.equal v v' -> None
          | Some v' -> Some (Printf.sprintf "traced run changed %s: %.17g -> %.17g" k v v')
          | None -> Some (Printf.sprintf "traced run lost %s" k))
        plain.Rep.det
    in
    let errors = label 0 plain @ label 1 traced @ drift in
    let value name =
      if String.equal name "trace_overhead_frac" then
        Measure.ratio traced.Rep.cpu_s plain.Rep.cpu_s -. 1.0
      else
        match Rep.value plain name with
        | Some v -> v
        | None -> Option.value (Rep.value traced name) ~default:0.0
    in
    {
      workload;
      correct = errors = [];
      attempted = plain.Rep.attempted + traced.Rep.attempted;
      failed = plain.Rep.failed + traced.Rep.failed;
      errors;
      metrics = List.map (fun m -> (m, value m.Catalog.name)) Catalog.per_layer;
      extra = [];
      info = [ ("untraced", Json.Obj plain.Rep.info); ("traced", Json.Obj traced.Rep.info) ];
    }
  end

let print_lines o =
  List.iter
    (fun ((m : Catalog.metric), v) ->
      Printf.printf "%s %s %s %s\n" o.workload m.Catalog.name (Doc.float_repr v) m.Catalog.unit_)
    o.metrics;
  List.iter (fun e -> Printf.printf "%s check failed: %s\n" o.workload e) o.errors

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Int o.attempted);
      ("failed", Json.Int o.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Catalog.metric), v) ->
               ( m.Catalog.name,
                 Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Catalog.unit_) ] ))
             o.metrics) );
    ]

(* ------------------------------------------------------------------ *)
(* Sets: every workload, one or more seeds                             *)
(* ------------------------------------------------------------------ *)

let set_doc ~seed ~seeds ~seconds ~trace ~scale outcomes =
  let by_workload =
    List.filter_map
      (fun w ->
        match List.filter (fun (_, o) -> String.equal o.workload w) outcomes with
        | [] -> None
        | runs ->
          let first = snd (List.hd runs) in
          let metric field (m : Catalog.metric) =
            let values = List.map (fun (_, o) -> List.assq m (field o)) runs in
            let q1, q2, q3 = Measure.quartiles values in
            ( m.Catalog.name,
              Json.Obj
                [
                  ("unit", Json.Str m.Catalog.unit_);
                  ("median", Json.Float q2);
                  ("q1", Json.Float q1);
                  ("q3", Json.Float q3);
                  ("spread", Json.Float (Measure.spread values));
                  ("values", Json.List (List.map (fun v -> Json.Float v) values));
                ] )
          in
          let total f = Json.Int (List.fold_left (fun a (_, o) -> a + f o) 0 runs) in
          let run (s, o) = Json.Obj [ ("seed", Json.Int s); ("info", Json.Obj o.info) ] in
          Some
            ( w,
              Json.Obj
                [
                  ("correct", Json.Bool (List.for_all (fun (_, o) -> o.correct) runs));
                  ("attempted", total (fun o -> o.attempted));
                  ("failed", total (fun o -> o.failed));
                  ( "errors",
                    Json.List
                      (List.concat_map (fun (_, o) -> List.map (fun e -> Json.Str e) o.errors) runs)
                  );
                  ( "metrics",
                    Json.Obj (List.map (fun (m, _) -> metric (fun o -> o.metrics) m) first.metrics)
                  );
                  ( "per_layer",
                    Json.Obj (List.map (fun (m, _) -> metric (fun o -> o.extra) m) first.extra) );
                  ("runs", Json.List (List.map run runs));
                ] ))
      Workloads.names
  in
  Json.Obj
    [
      ("schema", Json.Str "mdcc.bench_e2e.v1");
      ( "config",
        Json.Obj
          [
            ("seed", Json.Int seed);
            ("seeds", Json.Int seeds);
            ("seconds", Json.Float seconds);
            ("trace", Json.Bool trace);
            ("scale", Json.Str (if scale = Workloads.Toy then "toy" else "full"));
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("ocaml", Json.Str Sys.ocaml_version);
            ("os", Json.Str Sys.os_type);
          ] );
      ("workloads", Json.Obj by_workload);
    ]

let run_set ~seed ~seeds ~seconds ~trace =
  List.concat_map
    (fun w ->
      List.init seeds (fun i ->
          let s = seed + i in
          let o = measure ~workload:w ~seed:s ~seconds ~trace ~scale:Workloads.Full in
          if seeds > 1 then Printf.printf "# %s seed %d\n" w s;
          print_lines o;
          flush stdout;
          (s, o)))
    Workloads.names

let print_spreads outcomes =
  List.iter
    (fun w ->
      let runs = List.filter (fun (_, o) -> String.equal o.workload w) outcomes in
      if List.length runs > 1 then
        List.iter
          (fun ((m : Catalog.metric), _) ->
            let value (_, o) = List.assq m (o.metrics @ o.extra) in
            let values = List.map value runs in
            let q1, q2, q3 = Measure.quartiles values in
            Printf.printf "spread %-8s %-28s median %-14s q1 %-14s q3 %-14s spread %.4f\n" w
              m.Catalog.name (Doc.float_repr q2) (Doc.float_repr q1) (Doc.float_repr q3)
              (Measure.spread values))
          (let o = snd (List.hd runs) in
           o.metrics @ o.extra))
    Workloads.names

(* ------------------------------------------------------------------ *)
(* compare                                                             *)
(* ------------------------------------------------------------------ *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* Values of [metric] of [workload] in a set document. *)
let set_values doc workload metric =
  let ( >>= ) = Option.bind in
  match
    Json.member "workloads" doc >>= Json.member workload >>= Json.member "metrics"
    >>= Json.member metric >>= Json.member "values"
  with
  | Some vs -> List.filter_map Doc.num (Json.to_list vs)
  | None -> []

(* A metric is unresolved when either set's quartile spread is wider than
   its bound, unless every value of B beats every value of A; otherwise
   the medians decide, with [bound] as the margin for "same".  The change
   is relative to A's median; from a median of 0 any move is a change. *)
let judge (m : Catalog.metric) ~bound a b =
  let _, ma, _ = Measure.quartiles a and _, mb, _ = Measure.quartiles b in
  let gain x y = match m.Catalog.better with Catalog.Lower -> x -. y | Catalog.Higher -> y -. x in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.0) a) b in
  let change = if ma = 0.0 then gain ma mb *. Float.infinity else gain ma mb /. Float.abs ma in
  if Float.max (Measure.spread a) (Measure.spread b) > bound then
    if all_better then Better else Unresolved
  else if ma = mb || Float.abs change <= bound then Same
  else if change > 0.0 then Better
  else Worse

let compare_docs ~bounds a b =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (m : Catalog.metric) ->
          match (set_values a w m.Catalog.name, set_values b w m.Catalog.name) with
          | [], _ | _, [] -> None
          | va, vb ->
            let bound = Option.value (List.assoc_opt m.Catalog.name bounds) ~default:0.0 in
            Some (w, m, va, vb, judge m ~bound va vb))
        Catalog.end_to_end)
    Workloads.names

let print_comparison rows =
  Printf.printf "%-8s %-20s %14s %-31s %14s %-31s %s\n" "workload" "metric" "A median"
    "A [q1, q3]" "B median" "B [q1, q3]" "verdict";
  List.iter
    (fun (w, (m : Catalog.metric), va, vb, v) ->
      let q x =
        let q1, q2, q3 = Measure.quartiles x in
        (Printf.sprintf "%.6g" q2, Printf.sprintf "[%.6g, %.6g]" q1 q3)
      in
      let ma, ra = q va and mb, rb = q vb in
      Printf.printf "%-8s %-20s %14s %-31s %14s %-31s %s\n" w m.Catalog.name ma ra mb rb
        (verdict_name v))
    rows

(* ------------------------------------------------------------------ *)
(* smoke                                                               *)
(* ------------------------------------------------------------------ *)

(* [doc] with [f] applied to every value of [metric] on every workload. *)
let map_values doc metric f =
  let update key g j =
    Json.Obj
      (List.map (fun (k, v) -> if String.equal k key then (k, g v) else (k, v)) (Doc.obj_fields j))
  in
  let values vs =
    Json.List (List.map (fun v -> Json.Float (f (Option.value (Doc.num v) ~default:0.0))) (Json.to_list vs))
  in
  update "workloads"
    (fun ws ->
      Json.Obj
        (List.map
           (fun (w, wj) -> (w, update "metrics" (update metric (update "values" values)) wj))
           (Doc.obj_fields ws)))
    doc

(* [compare] must call a regression worse: a set against a copy of itself
   whose [success_frac] fell, or whose commit latency rose, by twice the
   bound on every workload; and a count that leaves 0.  Returns the
   misjudgements. *)
let regression_checks ~bounds doc =
  let worse_everywhere name scale =
    let bound = Option.value (List.assoc_opt name bounds) ~default:0.0 in
    let b = map_values doc name (fun v -> v *. scale bound) in
    List.filter_map
      (fun (w, (m : Catalog.metric), _, _, v) ->
        if String.equal m.Catalog.name name && v <> Worse then
          Some (Printf.sprintf "compare calls a %s regression on %s %s" name w (verdict_name v))
        else None)
      (compare_docs ~bounds doc b)
  in
  let failures = { Catalog.name = "failures"; unit_ = "count"; better = Catalog.Lower } in
  worse_everywhere "success_frac" (fun bound -> 1.0 -. (2.0 *. bound))
  @ worse_everywhere "vt_commit_p50_ms" (fun bound -> 1.0 +. (2.0 *. bound))
  @
  match judge failures ~bound:0.25 [ 0.0; 0.0; 0.0 ] [ 1.0; 1.0; 1.0 ] with
  | Worse -> []
  | v -> [ "compare calls a count rising from 0 " ^ verdict_name v ]

(* Every workload at toy scale, untraced and traced: the traced run must
   repeat the deterministic results, every declared metric must be
   reported and survive a JSON round trip, no end-to-end metric may read
   0, a set compared against itself must show nothing worse, and a
   regression must show as worse. *)
let smoke ~benchmark =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let bench = Doc.of_file benchmark in
  List.iter (fail "%s") (Catalog.check_benchmark bench);
  let scale = Workloads.Toy and seconds = 1.0 in
  let run trace =
    List.map
      (fun w -> (1, measure ~workload:w ~seed:1 ~seconds ~trace ~scale))
      Workloads.names
  in
  let plain = run false and traced = run true in
  let check declared (_, o) =
    if not o.correct then fail "%s: %s" o.workload (String.concat "; " o.errors);
    match Json.parse (Doc.to_string (result_json o)) with
    | Error e -> fail "%s: result line does not parse: %s" o.workload e
    | Ok j ->
      let listed =
        Doc.obj_fields (Option.value (Json.member "metrics" j) ~default:(Json.Obj []))
      in
      List.iter
        (fun (m : Catalog.metric) ->
          if not (List.mem_assoc m.Catalog.name listed) then
            fail "%s: %s missing from the result line" o.workload m.Catalog.name)
        declared
  in
  List.iter (check Catalog.end_to_end) plain;
  List.iter (check Catalog.per_layer) traced;
  List.iter
    (fun (_, o) ->
      List.iter
        (fun ((m : Catalog.metric), v) ->
          if v = 0.0 || not (Float.is_finite v) then
            fail "%s: end-to-end %s reads %g" o.workload m.Catalog.name v)
        o.metrics)
    plain;
  let doc = set_doc ~seed:1 ~seeds:1 ~seconds ~trace:false ~scale plain in
  (match Json.parse (Doc.to_string ~pretty:true doc) with
  | Error e -> fail "set document does not parse: %s" e
  | Ok parsed ->
    let bounds = Catalog.bounds bench in
    let rows = compare_docs ~bounds parsed parsed in
    if List.length rows <> List.length Workloads.names * List.length Catalog.end_to_end then
      fail "compare saw %d rows" (List.length rows);
    List.iter
      (fun (w, (m : Catalog.metric), _, _, v) ->
        if v = Worse then fail "compare of a set with itself: %s %s worse" w m.Catalog.name)
      rows;
    List.iter (fail "%s") (regression_checks ~bounds parsed));
  match List.rev !problems with
  | [] ->
    print_endline "bench_e2e smoke: ok";
    0
  | ps ->
    List.iter (fun p -> prerr_endline ("bench_e2e smoke: " ^ p)) ps;
    1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let workload_arg =
  let parse s =
    if List.mem s Workloads.names then Ok s
    else
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (one of %s)" s
             (String.concat ", " Workloads.names)))
  in
  let workload = Arg.conv (parse, Format.pp_print_string) in
  Arg.(required & opt (some workload) None & info [ "workload" ] ~docv:"NAME")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let seconds_arg =
  Arg.(
    value & opt float default_seconds
    & info [ "seconds" ] ~docv:"S" ~doc:"Length of one measured run.")

let measure_cmd =
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1: the traced per-layer run.")
  in
  let go workload seed seconds trace =
    match measure ~workload ~seed ~seconds ~trace:(trace = 1) ~scale:Workloads.Full with
    | o ->
      print_lines o;
      print_endline (Doc.to_string (result_json o));
      if o.correct then 0 else 1
    | exception Rep_failed e ->
      prerr_endline ("bench_e2e: " ^ e);
      2
  in
  Cmd.v
    (Cmd.info "measure" ~doc:"Run one workload; print its metrics and one JSON result line.")
    Term.(const go $ workload_arg $ seed_arg $ seconds_arg $ trace)

let rep_cmd =
  let index = Arg.(value & opt int 0 & info [ "index" ] ~docv:"I") in
  let traced = Arg.(value & flag & info [ "traced" ]) in
  let ladder = Arg.(value & flag & info [ "ladder" ]) in
  let toy = Arg.(value & flag & info [ "toy" ]) in
  let go workload seed index seconds traced ladder toy =
    let r =
      Workloads.run_rep workload ~seed ~index ~seconds ~traced ~ladder
        ~scale:(if toy then Workloads.Toy else Workloads.Full)
    in
    print_endline (Doc.to_string (Rep.to_json r));
    0
  in
  Cmd.v
    (Cmd.info "rep" ~doc:"One repetition (internal: run by measure in a child process).")
    Term.(const go $ workload_arg $ seed_arg $ index $ seconds_arg $ traced $ ladder $ toy)

let run_cmd =
  let seeds =
    Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"K" ~doc:"Measure seeds N .. N+K-1.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"The traced per-layer set.") in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE") in
  let go seed seeds seconds trace out =
    match run_set ~seed ~seeds ~seconds ~trace with
    | outcomes ->
      print_spreads outcomes;
      let out =
        match out with
        | Some f -> f
        | None -> if trace then "bench/e2e/BENCH_e2e.trace.json" else "bench/e2e/BENCH_e2e.json"
      in
      Doc.to_file out (set_doc ~seed ~seeds ~seconds ~trace ~scale:Workloads.Full outcomes);
      Printf.printf "written: %s\n" out;
      if List.for_all (fun (_, o) -> o.correct) outcomes then 0 else 1
    | exception Rep_failed e ->
      prerr_endline ("bench_e2e: " ^ e);
      2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure every workload; write the set as JSON.")
    Term.(const go $ seed_arg $ seeds $ seconds_arg $ trace $ out)

let benchmark_arg =
  Arg.(value & opt string "BENCHMARK.json" & info [ "benchmark" ] ~docv:"FILE" ~doc:"Bounds file.")

let compare_cmd =
  let a = Arg.(required & pos 0 (some file) None & info [] ~docv:"A.json") in
  let b = Arg.(required & pos 1 (some file) None & info [] ~docv:"B.json") in
  let go a b benchmark =
    let rows =
      compare_docs ~bounds:(Catalog.bounds (Doc.of_file benchmark)) (Doc.of_file a) (Doc.of_file b)
    in
    print_comparison rows;
    if List.exists (fun (_, _, _, _, v) -> v = Worse) rows then 1 else 0
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare two sets metric by metric against BENCHMARK.json's bounds.")
    Term.(const go $ a $ b $ benchmark_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"Every workload at toy scale, untraced and traced, with checks.")
    Term.(const (fun benchmark -> smoke ~benchmark) $ benchmark_arg)

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "bench_e2e" ~doc:"The end-to-end benchmark.")
          [ measure_cmd; rep_cmd; run_cmd; compare_cmd; smoke_cmd ]))
