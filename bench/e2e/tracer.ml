(* In-memory span recorder for the traced runs.

   Spans are opened around calls into a layer (a message handler, a timer
   or spawned thunk, a client-facing entry point) from the benchmark's own
   wrappers; nothing inside lib/ is instrumented.  Each span charges its
   duration and minor words to its name, minus what nested spans cover, so
   a name's total is its self time.  Time spent in spans opened at depth 0
   is summed separately: the caller subtracts it from the enclosing
   executor's run time (Engine.run, a loop iteration) to get the executor's
   own overhead.

   Spans of every 64th transaction (by trace-context hash) are also kept as
   whole trees — name, start, end, parent, txid — for the trace file. *)

type stat = { mutable count : int; mutable self_s : float; mutable self_words : float }

type frame = {
  f_name : int;
  f_t0 : float;
  f_w0 : float;
  mutable f_child_s : float;
  mutable f_child_w : float;
  f_rec : int;  (* index of this span's tree record, or -1 when not sampled *)
}

type record = {
  r_txid : string;
  r_name : string;
  r_parent : int;
  r_start : float;
  mutable r_end : float;
}

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable stats : stat array;
  mutable stack : frame list;
  mutable top_s : float;  (* duration of depth-0 spans *)
  mutable top_words : float;
  mutable top_count : int;
  mutable records : record array;
  mutable n_records : int;
  origin : float;
}

let sample_every = 64

(* Sampled spans kept per tracer: a few whole transaction trees. *)
let max_records = 512

let create () =
  {
    ids = Hashtbl.create 64;
    names = [||];
    stats = [||];
    stack = [];
    top_s = 0.0;
    top_words = 0.0;
    top_count = 0;
    records = [||];
    n_records = 0;
    origin = Unix.gettimeofday ();
  }

let id t name =
  match Hashtbl.find t.ids name with
  | i -> i
  | exception Not_found ->
    let i = Array.length t.names in
    Hashtbl.replace t.ids name i;
    t.names <- Array.append t.names [| name |];
    t.stats <- Array.append t.stats [| { count = 0; self_s = 0.0; self_words = 0.0 } |];
    i

let sampled txid = Hashtbl.hash txid mod sample_every = 0

let open_record t name now =
  match Mdcc_sim.Network.trace_context () with
  | Some txid when sampled txid && t.n_records < max_records ->
    let parent = match t.stack with f :: _ -> f.f_rec | [] -> -1 in
    let r =
      { r_txid = txid; r_name = t.names.(name); r_parent = parent; r_start = now -. t.origin;
        r_end = 0.0 }
    in
    if t.n_records = Array.length t.records then
      t.records <- Array.append t.records (Array.make (max 64 t.n_records) r);
    t.records.(t.n_records) <- r;
    t.n_records <- t.n_records + 1;
    t.n_records - 1
  | Some _ | None -> -1

let close t f =
  let dt = Unix.gettimeofday () -. f.f_t0 in
  let dw = Gc.minor_words () -. f.f_w0 in
  let s = t.stats.(f.f_name) in
  s.count <- s.count + 1;
  s.self_s <- s.self_s +. (dt -. f.f_child_s);
  s.self_words <- s.self_words +. (dw -. f.f_child_w);
  if f.f_rec >= 0 then t.records.(f.f_rec).r_end <- f.f_t0 +. dt -. t.origin;
  match t.stack with
  | _ :: (parent :: _ as rest) ->
    parent.f_child_s <- parent.f_child_s +. dt;
    parent.f_child_w <- parent.f_child_w +. dw;
    t.stack <- rest
  | [ _ ] | [] ->
    t.stack <- [];
    t.top_s <- t.top_s +. dt;
    t.top_words <- t.top_words +. dw;
    t.top_count <- t.top_count + 1

let span t name f =
  let now = Unix.gettimeofday () in
  let fr =
    { f_name = name; f_t0 = now; f_w0 = Gc.minor_words (); f_child_s = 0.0; f_child_w = 0.0;
      f_rec = open_record t name now }
  in
  t.stack <- fr :: t.stack;
  match f () with
  | v ->
    close t fr;
    v
  | exception e ->
    close t fr;
    raise e

(* Name of the innermost open span, if any. *)
let current t = match t.stack with f :: _ -> Some t.names.(f.f_name) | [] -> None

let top_s t = t.top_s
let top_words t = t.top_words
let top_count t = t.top_count

(* Forget every total (not the sampled trees); only valid with no span
   open. *)
let reset t =
  Array.iter
    (fun s ->
      s.count <- 0;
      s.self_s <- 0.0;
      s.self_words <- 0.0)
    t.stats;
  t.top_s <- 0.0;
  t.top_words <- 0.0;
  t.top_count <- 0

(* Totals over every span name satisfying [pred]. *)
let fold t pred =
  let c = ref 0 and s = ref 0.0 and w = ref 0.0 in
  Array.iteri
    (fun i name ->
      if pred name then begin
        let st = t.stats.(i) in
        c := !c + st.count;
        s := !s +. st.self_s;
        w := !w +. st.self_words
      end)
    t.names;
  (!c, !s, !w)

let prefixed prefix name =
  String.length name >= String.length prefix
  && String.equal (String.sub name 0 (String.length prefix)) prefix

let layer t prefix = fold t (prefixed prefix)
let named t name = fold t (String.equal name)

(* Sampled span trees, grouped by transaction, as JSON. *)
let trees_json t =
  let module Json = Mdcc_obs.Json in
  let by_txid = Hashtbl.create 16 in
  for i = t.n_records - 1 downto 0 do
    let r = t.records.(i) in
    let prev = Option.value (Hashtbl.find_opt by_txid r.r_txid) ~default:[] in
    Hashtbl.replace by_txid r.r_txid ((i, r) :: prev)
  done;
  let txids = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) by_txid []) in
  Json.List
    (List.map
       (fun txid ->
         Json.Obj
           [
             ("txid", Json.Str txid);
             ( "spans",
               Json.List
                 (List.map
                    (fun (i, r) ->
                      Json.Obj
                        [
                          ("id", Json.Int i);
                          ("parent", Json.Int r.r_parent);
                          ("name", Json.Str r.r_name);
                          ("start_us", Json.Float (Float.round (r.r_start *. 1e7) /. 10.0));
                          ("end_us", Json.Float (Float.round (r.r_end *. 1e7) /. 10.0));
                        ])
                    (Hashtbl.find by_txid txid)) );
           ])
       txids)
