(* Hierarchical per-domain profiler.

   Each domain carries one ambient handle in [Domain.DLS]; profiling is
   {e off} by default and every instrumentation point ([span], [count])
   collapses to a DLS read plus a boolean test when disabled, so the hot
   paths it decorates pay nothing unless a CLI passed [--profile].

   When enabled, [span name f] times [f] with {!Clock.monotonic_ms} and
   charges [Gc.minor_words] deltas to a node keyed by the {e hierarchical}
   path of enclosing spans ("sweep/run/engine"), so self time = inclusive
   − children attributes every measured millisecond to exactly one phase.
   [with_task] brackets a unit of parallel work with a fresh enabled
   handle and returns an immutable {!snapshot}; snapshots merge
   associatively in task order, mirroring [Registry.merge], so a
   [--jobs N] profile aggregates exactly like the metrics registry does.

   Profiler output always rides a separate channel (BENCH_profile.json,
   [--profile FILE]) — never the byte-pinned sweep/obs/metrics reports —
   because wall-clock durations are not deterministic. *)

type node = {
  n_path : string;
  mutable n_count : int;
  mutable n_wall_ms : float; (* inclusive *)
  mutable n_child_ms : float;
  mutable n_minor_words : float;
}

type t = {
  mutable p_enabled : bool;
  p_nodes : (string, node) Hashtbl.t;
  p_counters : (string, int ref) Hashtbl.t;
  mutable p_cur : string; (* path of the innermost open span, "" at top *)
}

let create () =
  {
    p_enabled = false;
    p_nodes = Hashtbl.create 32;
    p_counters = Hashtbl.create 32;
    p_cur = "";
  }

let enabled t = t.p_enabled
let set_enabled t on = t.p_enabled <- on

let node t path =
  match Hashtbl.find_opt t.p_nodes path with
  | Some n -> n
  | None ->
      let n =
        { n_path = path; n_count = 0; n_wall_ms = 0.0; n_child_ms = 0.0;
          n_minor_words = 0.0 }
      in
      Hashtbl.replace t.p_nodes path n;
      n

let span_in t name f =
  if not t.p_enabled then f ()
  else begin
    let parent = t.p_cur in
    let path = if parent = "" then name else parent ^ "/" ^ name in
    t.p_cur <- path;
    let t0 = Clock.monotonic_ms () in
    let w0 = Gc.minor_words () in
    let finish () =
      let dt = Clock.monotonic_ms () -. t0 in
      let dw = Gc.minor_words () -. w0 in
      t.p_cur <- parent;
      let n = node t path in
      n.n_count <- n.n_count + 1;
      n.n_wall_ms <- n.n_wall_ms +. dt;
      n.n_minor_words <- n.n_minor_words +. dw;
      if parent <> "" then begin
        let pn = node t parent in
        pn.n_child_ms <- pn.n_child_ms +. dt
      end
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* Exception-style lookup: counting happens inside measured phases, so a
   [Some] allocated per count would inflate the very minor-words numbers
   the profiler reports.  [add_in] takes the amount positionally: a hot
   caller passing [~by] to the optional form would build that [Some]
   itself, on every call, profiling on or off. *)
let add_in t name by =
  if t.p_enabled then begin
    let r =
      match Hashtbl.find t.p_counters name with
      | r -> r
      | exception Not_found ->
          let r = ref 0 in
          Hashtbl.replace t.p_counters name r;
          r
    in
    r := !r + by
  end

let count_in t ?(by = 1) name = add_in t name by

(* One ambient handle per domain: a worker domain starts from a fresh
   disabled handle, never the spawner's. *)
let ambient_key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())
let ambient () = Domain.DLS.get ambient_key
let span name f = span_in (ambient ()) name f
let count ?by name = count_in (ambient ()) ?by name
let enabled_ambient () = (ambient ()).p_enabled

let detached f =
  let prev = Domain.DLS.get ambient_key in
  Domain.DLS.set ambient_key (create ());
  Fun.protect ~finally:(fun () -> Domain.DLS.set ambient_key prev) f

type phase = {
  ph_path : string;
  ph_count : int;
  ph_wall_ms : float;
  ph_self_ms : float;
  ph_minor_words : float;
}

type snapshot = {
  sn_phases : phase list; (* sorted by path *)
  sn_counters : (string * int) list; (* sorted by name *)
}

let empty_snapshot = { sn_phases = []; sn_counters = [] }

let capture t =
  let sn_phases =
    Mdcc_util.Table.sorted_bindings ~compare:String.compare t.p_nodes
    |> List.map (fun (_, n) ->
           {
             ph_path = n.n_path;
             ph_count = n.n_count;
             ph_wall_ms = n.n_wall_ms;
             ph_self_ms = Float.max 0.0 (n.n_wall_ms -. n.n_child_ms);
             ph_minor_words = n.n_minor_words;
           })
  in
  let sn_counters =
    Mdcc_util.Table.sorted_bindings ~compare:String.compare t.p_counters
    |> List.map (fun (name, r) -> (name, !r))
  in
  { sn_phases; sn_counters }

(* Merge two sorted assoc-like lists, combining equal keys.  Both inputs
   are sorted (capture pins that), so the result is too — merging in task
   order is associative and key order never depends on arrival order. *)
let rec merge_sorted ~key ~combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | x :: xs, y :: ys ->
      let c = String.compare (key x) (key y) in
      if c = 0 then combine x y :: merge_sorted ~key ~combine xs ys
      else if c < 0 then x :: merge_sorted ~key ~combine xs b
      else y :: merge_sorted ~key ~combine a ys

let merge a b =
  let phase x y =
    {
      ph_path = x.ph_path;
      ph_count = x.ph_count + y.ph_count;
      ph_wall_ms = x.ph_wall_ms +. y.ph_wall_ms;
      ph_self_ms = x.ph_self_ms +. y.ph_self_ms;
      ph_minor_words = x.ph_minor_words +. y.ph_minor_words;
    }
  in
  {
    sn_phases =
      merge_sorted ~key:(fun p -> p.ph_path) ~combine:phase a.sn_phases
        b.sn_phases;
    sn_counters =
      merge_sorted ~key:fst
        ~combine:(fun (k, x) (_, y) -> (k, x + y))
        a.sn_counters b.sn_counters;
  }

let with_task f =
  let prev = Domain.DLS.get ambient_key in
  let h = create () in
  h.p_enabled <- true;
  Domain.DLS.set ambient_key h;
  let restore () = Domain.DLS.set ambient_key prev in
  let g0 = Gc.quick_stat () in
  match f () with
  | v ->
      let g1 = Gc.quick_stat () in
      let snap = capture h in
      restore ();
      let gc =
        [
          ("gc.major_collections",
           g1.Gc.major_collections - g0.Gc.major_collections);
          ("gc.minor_collections",
           g1.Gc.minor_collections - g0.Gc.minor_collections);
          ("gc.promoted_words",
           int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words));
        ]
      in
      (v, merge snap { sn_phases = []; sn_counters = gc })
  | exception e ->
      restore ();
      raise e

let snapshot_to_json s =
  let phases =
    Json.List
      (List.map
         (fun p ->
           Json.Obj
             [
               ("path", Json.Str p.ph_path);
               ("count", Json.Int p.ph_count);
               ("wall_ms", Json.Float p.ph_wall_ms);
               ("self_ms", Json.Float p.ph_self_ms);
               ("minor_words", Json.Float p.ph_minor_words);
             ])
         s.sn_phases)
  in
  let counters =
    Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.sn_counters)
  in
  Json.Obj [ ("phases", phases); ("counters", counters) ]

let attributed_ms s =
  List.fold_left (fun acc p -> acc +. p.ph_self_ms) 0.0 s.sn_phases
