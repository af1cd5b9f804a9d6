open Mdcc_storage
module Span = Mdcc_obs.Span
module Invariant = Mdcc_util.Invariant

type vote = Fast of Acceptor.reject_reason option | Classic of Woption.decision

type t =
  | Submitted of Txn.t
  | Proposed of { txid : Txn.id; key : Key.t; route : [ `Fast | `Classic ] }
  | Voted of { txid : Txn.id; key : Key.t; vote : vote }
  | Collided of { txid : Txn.id; key : Key.t; acks : int; rejects : int }
  | Collision_resolved of { txid : Txn.id; key : Key.t }
  | Redirected of { txid : Txn.id; key : Key.t; master : int }
  | Recovery_started of { txid : Txn.id; key : Key.t; target : int }
  | Learned of { txid : Txn.id; key : Key.t; decision : Woption.decision }
  | Decided of { txid : Txn.id; outcome : Txn.outcome }
  | Applied of { txid : Txn.id; key : Key.t; version : int; value : Value.t; wrote : bool }
  | Voided of { txid : Txn.id; key : Key.t }
  | Repaired of { txid : Txn.id; key : Key.t; src : int; version : int; value : Value.t }
  | Classic_learned of { txid : Txn.id; key : Key.t; decision : Woption.decision }
  | Master_recovery_started of { key : Key.t; ballot : int }
  | Master_recovery_resolved of { key : Key.t; options : int; forced : int; free : int }
  | Txn_recovery_started of { txid : Txn.id; keys : int }
  | Txn_recovery_finished of { txid : Txn.id; committed : bool }
  | Diverged of { peer : int; key : Key.t; version : int }
  | Unknown_update of { txid : Txn.id; key : Key.t }
  | Fault of string
  | Violation of Invariant.t

let in_history = function
  | Submitted _ | Decided _ | Voided _ | Repaired _ | Fault _ | Violation _ -> true
  | Applied { wrote; _ } -> wrote
  | Proposed _ | Voted _ | Collided _ | Collision_resolved _ | Redirected _
  | Recovery_started _ | Learned _ | Classic_learned _ | Master_recovery_started _
  | Master_recovery_resolved _ | Txn_recovery_started _ | Txn_recovery_finished _
  | Diverged _ | Unknown_update _ ->
    false

(* [Txn.pp_outcome]'s rendering, as constants. *)
let outcome_string = function
  | Txn.Committed -> "committed"
  | Txn.Aborted Txn.Conflict -> "aborted(conflict)"
  | Txn.Aborted Txn.Constraint_violation -> "aborted(constraint-violation)"

let short = function Woption.Accepted -> "acc" | Woption.Rejected -> "rej"

let fast_verdict = function
  | None -> "acc"
  | Some Acceptor.Version_validation -> "rej:version"
  | Some Acceptor.Outstanding_option -> "rej:outstanding"
  | Some Acceptor.Demarcation -> "rej:demarcation"

(* ["fast " ^ fast_verdict] and ["classic " ^ short], as constants. *)
let vote_detail = function
  | Fast None -> "fast acc"
  | Fast (Some Acceptor.Version_validation) -> "fast rej:version"
  | Fast (Some Acceptor.Outstanding_option) -> "fast rej:outstanding"
  | Fast (Some Acceptor.Demarcation) -> "fast rej:demarcation"
  | Classic Woption.Accepted -> "classic acc"
  | Classic Woption.Rejected -> "classic rej"

let span_names =
  [ "submit"; "propose"; "vote"; "collision"; "collision_resolved"; "redirect";
    "start_recovery"; "learn"; "decide"; "visible"; "repair" ]

module By_number = Map.Make (Int)

(* Details that carry a small number, each rendered once here, so that a
   span event with one costs what an event with a constant detail does;
   a number past its map is formatted as it comes.  The maps are
   immutable, so every domain may read them. *)
let rendered size f =
  let add m i = By_number.add i (f i) m in
  let table = List.fold_left add By_number.empty (List.init size Fun.id) in
  fun i -> match By_number.find i table with s -> s | exception Not_found -> f i

let keys_detail = rendered 64 (fun n -> string_of_int n ^ " keys")

let master_detail = rendered 64 (Printf.sprintf "to master %d")

let target_detail = rendered 64 (Printf.sprintf "via node %d")

(* Acks and rejects are votes of one replica group: a small square. *)
let tally_detail =
  let side = 8 and format acks rejects = Printf.sprintf "acks=%d rejects=%d" acks rejects in
  let square = rendered (side * side) (fun i -> format (i / side) (i mod side)) in
  fun ~acks ~rejects ->
    if acks >= 0 && acks < side && rejects >= 0 && rejects < side then
      square ((acks * side) + rejects)
    else format acks rejects

type span_sink = { sp : Span.t; labels : string option Key.Tbl.t }

let span_sink sp = { sp; labels = Key.Tbl.create 16 }

(* A span event about one record.  A store sees few keys and many events
   per key, so each key's label, [Some] and all, is rendered once. *)
let keyed { sp; labels } ~at ~node ~txid ~name key detail =
  let key =
    match Key.Tbl.find labels key with
    | label -> label
    | exception Not_found ->
      let label = Some (Key.to_string key) in
      Key.Tbl.add labels key label;
      label
  in
  Span.event sp ~txid ~at ~node ~name ?key ~detail ()

let record_span sink ~at ~node ev =
  let sp = sink.sp in
  match ev with
  | Submitted txn ->
    Span.begin_txn sp ~txid:txn.Txn.id ~at;
    Span.event sp ~txid:txn.Txn.id ~at ~node ~name:"submit"
      ~detail:(keys_detail (List.length txn.Txn.updates))
      ()
  | Proposed { txid; key; route } ->
    keyed sink ~at ~node ~txid ~name:"propose" key
      (match route with `Classic -> "classic" | `Fast -> "fast")
  | Voted { txid; key; vote } -> keyed sink ~at ~node ~txid ~name:"vote" key (vote_detail vote)
  | Collided { txid; key; acks; rejects } ->
    keyed sink ~at ~node ~txid ~name:"collision" key (tally_detail ~acks ~rejects)
  | Collision_resolved { txid; key } ->
    keyed sink ~at ~node ~txid ~name:"collision_resolved" key ""
  | Redirected { txid; key; master } ->
    keyed sink ~at ~node ~txid ~name:"redirect" key (master_detail master)
  | Recovery_started { txid; key; target } ->
    keyed sink ~at ~node ~txid ~name:"start_recovery" key (target_detail target)
  | Learned { txid; key; decision } ->
    keyed sink ~at ~node ~txid ~name:"learn" key
      (match decision with Woption.Accepted -> "accepted" | Woption.Rejected -> "rejected")
  | Decided { txid; outcome } ->
    Span.event sp ~txid ~at ~node ~name:"decide" ~detail:(outcome_string outcome) ()
  | Applied { txid; key; _ } -> keyed sink ~at ~node ~txid ~name:"visible" key "exec"
  | Voided { txid; key } -> keyed sink ~at ~node ~txid ~name:"visible" key "void"
  | Repaired { txid; key; _ } -> keyed sink ~at ~node ~txid ~name:"repair" key "replay delta"
  | Classic_learned _ | Master_recovery_started _ | Master_recovery_resolved _
  | Txn_recovery_started _ | Txn_recovery_finished _ | Diverged _ | Unknown_update _
  | Fault _ | Violation _ ->
    ()

let trace rt ~node ev =
  let app fmt = Runtime.trace rt ~tag:(Printf.sprintf "app%d" node) fmt
  and acceptor fmt = Runtime.trace rt ~tag:(Printf.sprintf "node%d" node) fmt
  and key = Key.to_string in
  match ev with
  | Decided { txid; outcome } -> app "decide %s %s" txid (outcome_string outcome)
  | Recovery_started { txid; key = k; target } ->
    app "start_recovery %s %s via node %d" txid (key k) target
  | Voted { txid; key = k; vote = Fast reason } ->
    acceptor "fast vote %s %s %s" txid (key k) (fast_verdict reason)
  | Applied { txid; key = k; _ } -> acceptor "visibility %s %s -> exec" txid (key k)
  | Voided { txid; key = k } -> acceptor "visibility %s %s -> void" txid (key k)
  | Unknown_update { txid; key = k } ->
    acceptor "visibility %s %s unknown update: catching up" txid (key k)
  | Repaired { txid; key = k; src; _ } ->
    acceptor "repair %s %s: replayed delta from node %d" txid (key k) src
  | Classic_learned { txid; key = k; decision } ->
    acceptor "classic learned %s %s %s" txid (key k) (short decision)
  | Master_recovery_started { key = k; ballot } ->
    acceptor "recovery start %s ballot=%d" (key k) ballot
  | Master_recovery_resolved { key = k; options; forced; free } ->
    acceptor "recovery resolved %s: %d options (%d forced, %d free)" (key k) options forced free
  | Txn_recovery_started { txid; keys } -> acceptor "txn recovery start %s (%d keys)" txid keys
  | Txn_recovery_finished { txid; committed } ->
    acceptor "txn recovery %s -> %s" txid (if committed then "commit" else "abort")
  | Diverged { peer; key = k; version } ->
    acceptor "anti-entropy divergence with node %d on %s at v%d" peer (key k) version
  | Violation v -> Runtime.trace rt ~tag:"invariant" "%s" (Invariant.to_string v)
  | Submitted _ | Proposed _ | Voted { vote = Classic _; _ } | Collided _
  | Collision_resolved _ | Redirected _ | Learned _ | Fault _ ->
    ()
