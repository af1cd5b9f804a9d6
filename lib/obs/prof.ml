(* Hierarchical per-domain profiler.

   Each domain carries one ambient handle in [Domain.DLS]; profiling is
   {e off} by default and every instrumentation point ([span], [count])
   collapses to a DLS read plus a boolean test when disabled, so the hot
   paths it decorates pay nothing unless a CLI passed [--profile].

   When enabled, [span name f] times [f] with {!Clock.monotonic_ms} and
   charges [Gc.minor_words] deltas to a node keyed by the {e hierarchical}
   path of enclosing spans ("sweep/run/engine"), so self time = inclusive
   − children attributes every measured millisecond to exactly one phase.
   [with_task] brackets a unit of work with a fresh enabled handle and
   returns an immutable {!snapshot}.  [map_list] is the one way work
   crosses domains while profiling: each group of elements runs under its
   own bracket on whichever domain claims it, and the group snapshots
   fold into the caller's handle in task order, mirroring
   [Registry.merge], so a [--jobs N] profile counts what a [--jobs 1]
   profile counts.

   Profiler output always rides a separate channel (BENCH_profile.json,
   [--profile FILE]) — never the byte-pinned sweep/obs/metrics reports —
   because wall-clock durations are not deterministic. *)

module Pool = Mdcc_util.Pool

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

(* Fold [s] into [t] under [t]'s innermost open span: phase paths gain
   that span's path as prefix, and the wall time of [s]'s top-level
   phases counts as its children, so a snapshot taken on another domain
   lands where the same work run inline would have. *)
let absorb t s =
  let parent = t.p_cur in
  List.iter
    (fun ph ->
      let path = if parent = "" then ph.ph_path else parent ^ "/" ^ ph.ph_path in
      let n = node t path in
      n.n_count <- n.n_count + ph.ph_count;
      n.n_wall_ms <- n.n_wall_ms +. ph.ph_wall_ms;
      n.n_child_ms <- n.n_child_ms +. (ph.ph_wall_ms -. ph.ph_self_ms);
      n.n_minor_words <- n.n_minor_words +. ph.ph_minor_words;
      if parent <> "" && not (String.contains ph.ph_path '/') then begin
        let pn = node t parent in
        pn.n_child_ms <- pn.n_child_ms +. ph.ph_wall_ms
      end)
    s.sn_phases;
  List.iter (fun (name, v) -> add_in t name v) s.sn_counters

(* [Gc.quick_stat] counts for the whole process, not the calling domain,
   so only the outermost bracket takes it: a pool group's bracket runs
   inside one and never does. *)
let bracket ~gc f =
  let prev = Domain.DLS.get ambient_key in
  let h = create () in
  h.p_enabled <- true;
  Domain.DLS.set ambient_key h;
  let restore () = Domain.DLS.set ambient_key prev in
  let g0 = if gc then Some (Gc.quick_stat ()) else None in
  match f () with
  | v ->
      (match g0 with
       | None -> ()
       | Some g0 ->
           let g1 = Gc.quick_stat () in
           add_in h "gc.major_collections"
             (g1.Gc.major_collections - g0.Gc.major_collections);
           add_in h "gc.minor_collections"
             (g1.Gc.minor_collections - g0.Gc.minor_collections);
           add_in h "gc.promoted_words"
             (int_of_float (g1.Gc.promoted_words -. g0.Gc.promoted_words)));
      let snap = capture h in
      restore ();
      (v, snap)
  | exception e ->
      restore ();
      raise e

let with_task f = bracket ~gc:(not (Domain.DLS.get ambient_key).p_enabled) f

(* A bracket per element would cost more than a short task, so while
   profiling the elements go out in groups: about eight per domain, few
   enough that bracket and snapshot costs are a rounding error, enough
   that the domains stay balanced when task costs vary. *)
let map_list ~jobs xs ~f =
  let t = ambient () in
  if not t.p_enabled then Pool.map_list ~jobs xs ~f
  else begin
    (* [max 1 jobs] leaves a bad [jobs] to [Pool.map_list]'s violation. *)
    let groups = Pool.chunks (max 1 (List.length xs / (max 1 jobs * 8))) xs in
    let caller = Domain.self () in
    let done_ =
      Pool.map_list ~jobs groups ~f:(fun group ->
          let v, snap = bracket ~gc:false (fun () -> List.map f group) in
          (v, snap, Domain.self () <> caller))
    in
    absorb t (List.fold_left (fun acc (_, snap, _) -> merge acc snap) empty_snapshot done_);
    add_in t "pool.batches" (if groups = [] then 0 else 1);
    add_in t "pool.tasks" (List.length groups);
    add_in t "pool.stolen" (List.length (List.filter (fun (_, _, stolen) -> stolen) done_));
    List.concat_map (fun (v, _, _) -> v) done_
  end

let attributed_ms s =
  List.fold_left (fun acc p -> acc +. p.ph_self_ms) 0.0 s.sn_phases

let sections ~leg ?wall_s s =
  let attributed_ms = attributed_ms s in
  let totals =
    match wall_s with
    | None -> [ ("attributed_ms", attributed_ms) ]
    | Some wall_s ->
        [
          ("wall_s", wall_s);
          ("attributed_ms", attributed_ms);
          ("attributed_fraction", attributed_ms /. (wall_s *. 1000.0));
        ]
  in
  ((leg, totals)
   :: List.map
        (fun p ->
          ( leg ^ ":" ^ p.ph_path,
            [
              ("count", Float.of_int p.ph_count);
              ("wall_ms", p.ph_wall_ms);
              ("self_ms", p.ph_self_ms);
              ("minor_words", p.ph_minor_words);
            ] ))
        s.sn_phases)
  @ [ (leg ^ ".counters", List.map (fun (k, v) -> (k, Float.of_int v)) s.sn_counters) ]
