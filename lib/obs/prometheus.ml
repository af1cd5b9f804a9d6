(* Prometheus text exposition (format version 0.0.4) of a Registry.

   Registry keys are free-form dotted names ("net.sent.node03",
   "wire.cmd.get"); Prometheus metric names are [a-zA-Z_:][a-zA-Z0-9_:]*.
   We sanitize by mapping every illegal byte to '_' and prefixing
   "mdcc_", which also guarantees a legal first character.  Distinct
   registry keys can collapse to one metric name ("a.b" and "a_b"), so
   same-name entries are summed before rendering — duplicate series are
   invalid exposition.  Output is deterministic: one pass over the
   registry's sorted bindings, groups emitted in sorted metric-name
   order. *)

let sanitize key =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    key

let metric_name key = "mdcc_" ^ sanitize key

(* HELP text: '\' -> "\\", newline -> "\n".  Label values additionally
   escape '"'. *)
let escape_help s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Histogram buckets in milliseconds — registry histograms record
   latencies in ms throughout the repo.  Fixed so scrapes are comparable
   across runs; +Inf is implicit in [render_hist]. *)
let buckets = [ 0.1; 0.5; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0; 1000.0 ]

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Group sorted (key, value) pairs by sanitized metric name, combining
   values of colliding keys with [combine]; keeps the first original key
   for the HELP line.  Input sorted by original key; output is sorted by
   metric name (re-sorted, since sanitization can reorder). *)
let group_by_metric ~combine pairs =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (key, v) ->
      let name = metric_name key in
      match Hashtbl.find_opt tbl name with
      | None -> Hashtbl.replace tbl name (key, v)
      | Some (k0, v0) -> Hashtbl.replace tbl name (k0, combine v0 v))
    pairs;
  Mdcc_util.Table.sorted_bindings ~compare:String.compare tbl

let render_int_family buf ~typ ~suffix (name, (key, v)) =
  let full = name ^ suffix in
  Printf.bprintf buf "# HELP %s MDCC registry %s %s\n" full typ
    (escape_help key);
  Printf.bprintf buf "# TYPE %s %s\n" full typ;
  Printf.bprintf buf "%s %d\n" full v

let render_hist buf (name, (key, samples)) =
  Printf.bprintf buf "# HELP %s MDCC registry histogram %s (ms)\n" name
    (escape_help key);
  Printf.bprintf buf "# TYPE %s histogram\n" name;
  let total = List.length samples in
  let sum = List.fold_left ( +. ) 0.0 samples in
  List.iter
    (fun le ->
      let n = List.length (List.filter (fun s -> s <= le) samples) in
      Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" name (float_str le) n)
    buckets;
  Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" name total;
  Printf.bprintf buf "%s_sum %g\n" name sum;
  Printf.bprintf buf "%s_count %d\n" name total

let render registry =
  let buf = Buffer.create 4096 in
  Registry.counter_bindings registry
  |> group_by_metric ~combine:( + )
  |> List.iter (render_int_family buf ~typ:"counter" ~suffix:"_total");
  (* Colliding gauges keep the last (sorted-order) value — summing two
     last-writer-wins cells would be meaningless. *)
  Registry.gauge_bindings registry
  |> group_by_metric ~combine:(fun _ v -> v)
  |> List.iter (render_int_family buf ~typ:"gauge" ~suffix:"");
  Registry.hist_bindings registry
  |> group_by_metric ~combine:( @ )
  |> List.iter (render_hist buf);
  Buffer.contents buf
