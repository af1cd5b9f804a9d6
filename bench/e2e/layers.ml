(* The protocol layers as the benchmark measures them: message kinds, a
   [Runtime.t] that opens a [Tracer] span around every call into protocol
   code, and the per-layer metrics read off spans, registry counters and
   GC statistics.  Shared by the workloads. *)

module Messages = Mdcc_core.Messages
module Runtime = Mdcc_core.Runtime

(* Message kinds, by payload constructor.  Several constructors share a
   kind where they belong to one protocol step. *)
let kind_of = function
  | Messages.Propose _ -> "propose"
  | Messages.Phase1a _ | Messages.Phase1b _ -> "phase1"
  | Messages.Phase2a _ -> "phase2a"
  | Messages.Phase2b_master _ | Messages.Phase2b_fast _ -> "phase2b"
  | Messages.Learned _ -> "learned"
  | Messages.Redirect _ -> "redirect"
  | Messages.Visibility _ -> "visibility"
  | Messages.Start_recovery _ -> "start_recovery"
  | Messages.Status_query _ | Messages.Status_reply _ -> "status"
  | Messages.Catchup_request _ | Messages.Catchup _ -> "catchup"
  | Messages.Sync_request _ | Messages.Sync_reply _ -> "sync"
  | Messages.Read_request _ | Messages.Read_reply _ | Messages.Scan_request _
  | Messages.Scan_reply _ ->
    "read"
  | Messages.Batch _ -> "batch"
  | _ -> "other"

let message_kinds =
  [ "propose"; "phase1"; "phase2a"; "phase2b"; "learned"; "redirect"; "visibility";
    "start_recovery"; "status"; "catchup"; "sync"; "read"; "batch"; "other" ]

(* The storage-node spans reported one by one: every message kind that
   carries at least 1 % of storage-node messages on some workload, plus the
   node's own timers (the dangling-transaction scan). *)
let reported_kinds = [ "propose"; "phase1"; "phase2a"; "phase2b"; "visibility"; "read"; "timer" ]

(* A runtime that forwards to [base] and opens a span around every call
   into protocol code: deliveries (named by receiving role and message
   kind), timers and spawned thunks (named by the role that armed them),
   and sends.  [role node] names the role of a node id. *)
let traced_runtime tr base ~role =
  let send_id = Tracer.id tr "net.send" in
  let kind_ids = Hashtbl.create 32 in
  let kind_id r p =
    let k = (r, kind_of p) in
    match Hashtbl.find_opt kind_ids k with
    | Some i -> i
    | None ->
      let i = Tracer.id tr (Printf.sprintf "%s.%s" r (snd k)) in
      Hashtbl.replace kind_ids k i;
      i
  in
  (* A timer or thunk belongs to the role whose span armed it. *)
  let owner suffix =
    let r =
      match Tracer.current tr with
      | Some name -> (
        match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name)
      | None -> "runtime"
    in
    Tracer.id tr (r ^ "." ^ suffix)
  in
  Runtime.make
    ~now:(fun () -> Runtime.now base)
    ~send:(fun ~src ~dst payload ->
      Tracer.span tr send_id (fun () -> Runtime.send base ~src ~dst payload))
    ~register:(fun node handler ->
      let r = role node in
      Runtime.register base node (fun ~src payload ->
          Tracer.span tr (kind_id r payload) (fun () -> handler ~src payload)))
    ~set_timer:(fun ~after f ->
      let id = owner "timer" in
      let timer = Runtime.set_timer base ~after (fun () -> Tracer.span tr id f) in
      fun () -> Runtime.cancel_timer base timer)
    ~spawn:(fun f ->
      let id = owner "spawn" in
      Runtime.spawn base (fun () -> Tracer.span tr id f))
    ~rng:(Runtime.rng base) ~dc_of:(Runtime.dc_of base)
    ~trace:(fun ~tag msg -> Runtime.trace base ~tag "%s" msg)
    ~tracing:(fun () -> Runtime.tracing base)
    ()

(* Sum of the registry counters whose name starts with [prefix] (the
   per-node [net.sent.nodeNN] family). *)
let counter_sum bindings prefix =
  List.fold_left
    (fun acc (name, v) -> if Tracer.prefixed prefix name then acc + v else acc)
    0 bindings

(* Protocol-path counters of the coordinators and storage nodes, from their
   observability registry: [c name] reads a counter, [per_op] turns a
   count into a rate per op. *)
let counter_metrics ~c ~per_op =
  let rejects =
    c "option_reject_version" +. c "option_reject_outstanding" +. c "option_reject_demarcation"
  in
  [
    ( "coordinator.fast_commit_frac",
      Measure.ratio (c "fast_commit") (c "fast_commit" +. c "assisted_commit") );
    ("coordinator.collisions_per_op", per_op (c "collision"));
    ("coordinator.redirects_per_op", per_op (c "redirect"));
    ("coordinator.timeout_recoveries_per_op", per_op (c "timeout_recovery"));
    ( "storage_node.option_accept_frac",
      Measure.ratio (c "option_accept") (c "option_accept" +. rejects) );
    ("storage_node.phase1_rounds_per_op", per_op (c "phase1_round"));
    ("storage_node.recoveries_per_op", per_op (c "recovery_start"));
    ("storage_node.repairs_per_op", per_op (c "antientropy_repair"));
  ]

let gc_metrics (gc : Measure.gc) ~per_op =
  [
    ("gc.minor_collections_per_kop", 1000.0 *. per_op (Float.of_int gc.Measure.minor_gcs));
    ("gc.major_collections_per_kop", 1000.0 *. per_op (Float.of_int gc.Measure.major_gcs));
    ("gc.major_words_per_op", per_op gc.Measure.major_words);
  ]

(* The span-derived metrics both mirrors report.  [frac] turns a time into
   a share of the executor's time, [per_op] a count into a rate per op. *)
let metrics tr ~frac ~per_op =
  let _, send_s, _ = Tracer.named tr "net.send" in
  let _, coord_s, coord_w = Tracer.layer tr "coordinator." in
  let _, sn_s, _ = Tracer.layer tr "storage_node." in
  let sn_msgs, _, sn_w =
    Tracer.fold tr (fun n ->
        List.exists (fun k -> String.equal n ("storage_node." ^ k)) message_kinds)
  in
  [
    ("net.send_frac", frac send_s);
    ("coordinator.self_frac", frac coord_s);
    ("coordinator.words_per_op", per_op coord_w);
    ("storage_node.self_frac", frac sn_s);
    ("storage_node.msgs_per_op", per_op (Float.of_int sn_msgs));
    ("storage_node.words_per_msg", Measure.ratio sn_w (Float.of_int sn_msgs));
  ]
  @ List.concat_map
      (fun k ->
        let n, s, _ = Tracer.named tr ("storage_node." ^ k) in
        [
          (Printf.sprintf "storage_node.%s.per_op" k, per_op (Float.of_int n));
          (Printf.sprintf "storage_node.%s.self_frac" k, frac s);
        ])
      reported_kinds
