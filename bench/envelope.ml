module Json = Mdcc_obs.Json

type section = (string * float) list
type t = { bench : string; config : Json.t; sections : (string * section) list }

let schema = "mdcc.bench.v2"

let write path ~bench ~config sections =
  let cores = ("cores", Json.Int (Domain.recommended_domain_count ())) in
  let section (name, metrics) =
    (name, Json.Obj (List.map (fun (m, v) -> (m, Json.Float v)) metrics))
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str schema);
        ("bench", Json.Str bench);
        ("config", Json.Obj (config @ [ cores ]));
        ("sections", Json.Obj (List.map section sections));
      ]
  in
  let oc = open_out path in
  output_string oc (Json.to_string doc);
  output_char oc '\n';
  close_out oc

exception Bad of string

let read path =
  let bad fmt = Printf.ksprintf (fun e -> raise (Bad e)) fmt in
  let number section = function
    | m, Json.Float v -> (m, v)
    | m, Json.Int i -> (m, Float.of_int i)
    | m, _ -> bad "section %s: %s is not a number" section m
  in
  let section = function
    | name, Json.Obj metrics -> (name, List.map (number name) metrics)
    | name, _ -> bad "section %s is not an object" name
  in
  try
    let doc =
      match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
      | Ok doc -> doc
      | Error e -> bad "%s" e
    in
    match List.map (fun f -> Json.member f doc) [ "schema"; "bench"; "config"; "sections" ] with
    | [ Some (Json.Str s); Some (Json.Str bench); Some config; Some (Json.Obj sections) ]
      when String.equal s schema ->
      Ok { bench; config; sections = List.map section sections }
    | Some (Json.Str s) :: _ when not (String.equal s schema) ->
      bad "schema %s, expected %s" s schema
    | _ -> bad "not a %s document" schema
  with
  | Sys_error e -> Error e
  | Bad e -> Error (path ^ ": " ^ e)

let comparable config =
  match (Json.member "jobs" config, Json.member "cores" config) with
  | Some (Json.Int jobs), Some (Json.Int cores) -> jobs <= cores
  | Some (Json.Int jobs), None -> jobs <= Domain.recommended_domain_count ()
  | _ -> true

type better = Lower | Higher

(* Union of two association lists' keys: [a]'s order, then [b]'s extras. *)
let keys a b =
  List.map fst a @ List.filter_map (fun (k, _) -> if List.mem_assoc k a then None else Some k) b

let num = Printf.sprintf "%.6g"

let check ?(out = print_endline) ?(err = prerr_endline) ?(gates = []) ?(tolerance = 0.05)
    baseline_path fresh_path =
  match (read baseline_path, read fresh_path) with
  | Error e, _ | _, Error e ->
    err ("bench-check: " ^ e);
    2
  | Ok base, Ok fresh when not (String.equal base.bench fresh.bench) ->
    err (Printf.sprintf "bench-check: bench %s vs %s: not comparable" base.bench fresh.bench);
    2
  | Ok base, Ok fresh ->
    List.iter
      (fun s ->
        let b = Option.value ~default:[] (List.assoc_opt s base.sections)
        and f = Option.value ~default:[] (List.assoc_opt s fresh.sections) in
        List.iter
          (fun m ->
            let cell = Option.fold ~none:"-" ~some:num in
            let bv = List.assoc_opt m b and fv = List.assoc_opt m f in
            let delta =
              match (bv, fv) with
              | Some bv, Some fv when bv <> 0.0 ->
                Printf.sprintf "%+.1f%%" (100.0 *. (fv -. bv) /. bv)
              | Some _, Some _ -> ""
              | None, _ -> "new"
              | _, None -> "gone"
            in
            out (Printf.sprintf "  %-52s %12s %12s %8s" (s ^ " " ^ m) (cell bv) (cell fv) delta))
          (keys b f))
      (keys base.sections fresh.sections);
    let failures = ref 0 in
    let fail msg =
      incr failures;
      err ("bench-check: FAIL " ^ msg)
    in
    let compare_values = comparable base.config && comparable fresh.config in
    if gates <> [] then begin
      if not compare_values then
        out
          (Printf.sprintf
             "bench-check: SKIPPING gated comparison (%s records more jobs than cores: the \
              ratio measures time-slicing, not parallelism)"
             (if comparable base.config then fresh_path else baseline_path));
      List.iter
        (fun (s, _) ->
          if not (List.mem_assoc s fresh.sections) then
            fail (Printf.sprintf "section %s missing from %s" s fresh_path))
        base.sections;
      List.iter
        (fun (m, better) ->
          let gated = List.filter (fun (_, b) -> List.mem_assoc m b) base.sections in
          if gated = [] then
            fail (Printf.sprintf "gated metric %s in no section of %s" m baseline_path);
          List.iter
            (fun (s, b) ->
              let bv = List.assoc m b in
              match Option.map (List.assoc_opt m) (List.assoc_opt s fresh.sections) with
              | None -> () (* the whole section is missing, reported above *)
              | Some None -> fail (Printf.sprintf "%s %s missing from %s" s m fresh_path)
              | Some (Some fv) ->
                let worse =
                  match better with
                  | Lower -> fv > bv *. (1.0 +. tolerance)
                  | Higher -> fv < bv *. (1.0 -. tolerance)
                in
                if compare_values && worse then
                  fail
                    (Printf.sprintf "%s %s: %s -> %s, beyond the %.0f%% tolerance" s m (num bv)
                       (num fv) (100.0 *. tolerance)))
            gated)
        gates
    end;
    if !failures > 0 then 3
    else begin
      if gates <> [] && compare_values then
        out
          (Printf.sprintf "bench-check: every gated metric within %.0f%% of %s"
             (100.0 *. tolerance) baseline_path);
      0
    end
