module Table = Mdcc_util.Table

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, int ref) Hashtbl.t;
  hists : (string, float list ref) Hashtbl.t;
}

let create () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    hists = Hashtbl.create 16;
  }

(* Exception-style lookup: [find_opt] allocates a [Some] per call, and
   [incr] runs once per counted protocol event — the found case must not
   allocate. *)
let cell tbl name =
  match Hashtbl.find tbl name with
  | r -> r
  | exception Not_found ->
      let r = ref 0 in
      Hashtbl.replace tbl name r;
      r

let incr t ?(by = 1) name =
  let r = cell t.counters name in
  r := !r + by

(* A counter handle caches the counter's [int ref] so a bump skips the
   string hash and table probe.  It resolves on first use — a handle that
   is never bumped leaves the registry untouched, exactly as an [incr] that
   never runs. *)
type counter = {
  c_reg : t;
  c_name : string;
  mutable c_ref : int ref;
  mutable c_resolved : bool;
}

let counter_handle t name = { c_reg = t; c_name = name; c_ref = ref 0; c_resolved = false }

let add h by =
  if not h.c_resolved then begin
    h.c_ref <- cell h.c_reg.counters h.c_name;
    h.c_resolved <- true
  end;
  h.c_ref := !(h.c_ref) + by

let set_gauge t name v = cell t.gauges name := v

let add_gauge t name d =
  let r = cell t.gauges name in
  r := !r + d

let hist_cell t name =
  match Hashtbl.find t.hists name with
  | r -> r
  | exception Not_found ->
      let r = ref [] in
      Hashtbl.replace t.hists name r;
      r

let ensure_hist t name = ignore (hist_cell t name)

let observe t name sample =
  let r = hist_cell t name in
  r := sample :: !r

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let gauge t name =
  match Hashtbl.find_opt t.gauges name with Some r -> !r | None -> 0

let hist_count t name =
  match Hashtbl.find_opt t.hists name with
  | Some r -> List.length !r
  | None -> 0

let sorted_ints tbl =
  Table.sorted_bindings ~compare:String.compare tbl
  |> List.map (fun (name, r) -> (name, !r))

let counter_bindings t = sorted_ints t.counters
let gauge_bindings t = sorted_ints t.gauges

let hist_bindings t =
  Table.sorted_bindings ~compare:String.compare t.hists
  |> List.map (fun (name, r) -> (name, List.rev !r))

let merge ~into src =
  Prof.count "registry.merge";
  Prof.span "registry.merge" @@ fun () ->
  let sorted tbl = Table.sorted_bindings ~compare:String.compare tbl in
  List.iter (fun (name, r) -> incr into ~by:!r name) (sorted src.counters);
  (* Gauges take src's value unconditionally — last writer wins exactly as
     it would in a sequential run, so folding per-task registries in task
     order reproduces the sequential final value even when a task sets a
     gauge back to 0 (the cell exists, so it still overwrites). *)
  List.iter (fun (name, r) -> set_gauge into name !r) (sorted src.gauges);
  List.iter
    (fun (name, r) ->
      (* Union the histogram name even when src recorded no samples, so a
         merged snapshot lists the same histograms a sequential run would
         (per-domain profiler handles create empty hists routinely).
         Samples were prepended, so [List.rev] restores observation order;
         appending them keeps the merged histogram's sample list equal to
         what a single sequential run would have accumulated. *)
      ensure_hist into name;
      List.iter (fun sample -> observe into name sample) (List.rev !r))
    (sorted src.hists)

let hist_json samples =
  let arr = Array.of_list samples in
  Array.sort compare arr;
  let n = Array.length arr in
  if n = 0 then Json.Obj [ ("count", Json.Int 0) ]
  else
    let pct p =
      let idx = int_of_float (Float.of_int (n - 1) *. p) in
      arr.(idx)
    in
    let sum = Array.fold_left ( +. ) 0.0 arr in
    Json.Obj
      [
        ("count", Json.Int n);
        ("mean", Json.Float (sum /. Float.of_int n));
        ("min", Json.Float arr.(0));
        ("max", Json.Float arr.(n - 1));
        ("p50", Json.Float (pct 0.50));
        ("p95", Json.Float (pct 0.95));
        ("p99", Json.Float (pct 0.99));
      ]

let to_json t =
  let ints tbl =
    Json.Obj
      (List.map
         (fun (name, r) -> (name, Json.Int !r))
         (Table.sorted_bindings ~compare:String.compare tbl))
  in
  let hists =
    Json.Obj
      (List.map
         (fun (name, r) -> (name, hist_json (List.rev !r)))
         (Table.sorted_bindings ~compare:String.compare t.hists))
  in
  Json.Obj
    [
      ("counters", ints t.counters);
      ("gauges", ints t.gauges);
      ("histograms", hists);
    ]
