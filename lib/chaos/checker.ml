open Mdcc_storage
module History = Mdcc_core.History
module Event = Mdcc_core.Event

type violation = { invariant : string; detail : string }

let violation_to_string v = Printf.sprintf "[%s] %s" v.invariant v.detail

(* Everything the checker knows about one transaction id.  [applied] and
   [voided] hold the history's own entries, in event order: [applied] the
   [Applied] entries that wrote and the [Repaired] ones, [voided] the
   [Voided] ones.  [succs] and [color] are the serializability check's
   conflict-graph node. *)
type info = {
  txid : Txn.id;
  mutable txn : Txn.t option;  (* the last Submitted *)
  mutable decisions : Txn.outcome list;  (* every Decided, event order *)
  mutable applied : History.entry list;
  mutable voided : History.entry list;
  mutable succs : info list;
  mutable color : int;  (* 0 unvisited, 1 on the DFS path, 2 done *)
}

(* Every transaction id the history names, with what it knows of it, in
   txid order.  The history is walked once, newest entry first, so consing
   leaves every list in event order; each check then walks this one list,
   and builds its violations by consing too, so each check reports in
   descending txid order. *)
let gather history =
  let tbl : (Txn.id, info) Hashtbl.t = Hashtbl.create 16 in
  let all = ref [] in
  let get txid =
    match Hashtbl.find tbl txid with
    | i -> i
    | exception Not_found ->
      let i =
        { txid; txn = None; decisions = []; applied = []; voided = []; succs = []; color = 0 }
      in
      Hashtbl.add tbl txid i;
      all := i :: !all;
      i
  in
  History.iter_newest_first
    (fun ({ History.event; _ } as e) ->
      match event with
      | Event.Submitted txn -> (
        let i = get txn.Txn.id in
        match i.txn with None -> i.txn <- Some txn | Some _ -> ())
      | Event.Decided { txid; outcome } ->
        let i = get txid in
        i.decisions <- outcome :: i.decisions
      | Event.Applied { txid; wrote = true; _ } | Event.Repaired { txid; _ } ->
        let i = get txid in
        i.applied <- e :: i.applied
      | Event.Voided { txid; _ } ->
        let i = get txid in
        i.voided <- e :: i.voided
      | _ -> (* faults, and steps the history does not keep ([Event.in_history]) *) ())
    history;
  List.sort (fun a b -> String.compare a.txid b.txid) !all

(* Did the transaction commit?  Prefer the coordinator's (first) decision;
   fall back to visibility evidence for transactions finished by recovery
   alone. *)
let committed i =
  match i.decisions with
  | Txn.Committed :: _ -> true
  | Txn.Aborted _ :: _ -> false
  | [] -> i.applied <> []

(* ------------------------------------------------------------------ *)
(* 1. Atomic visibility                                                *)
(* ------------------------------------------------------------------ *)

(* The nodes of some entries, newest first. *)
let nodes entries =
  String.concat ","
    (List.rev_map (fun (e : History.entry) -> Printf.sprintf "node%d" e.History.node) entries)

let atomic_visibility i =
  match (i.applied, i.voided, i.decisions) with
  | _ :: _, _ :: _, _ ->
    Some
      (Printf.sprintf "txn %s executed at %s but voided at %s" i.txid (nodes i.applied)
         (nodes i.voided))
  | [], _ :: _, Txn.Committed :: _ ->
    Some (Printf.sprintf "txn %s decided Committed but voided at a replica" i.txid)
  | _ :: _, [], Txn.Aborted _ :: _ ->
    Some (Printf.sprintf "txn %s decided Aborted but executed at a replica" i.txid)
  | _ -> None

let check_atomic_visibility txns =
  List.fold_left
    (fun out i ->
      match atomic_visibility i with
      | Some detail -> { invariant = "atomic-visibility"; detail } :: out
      | None -> out)
    [] txns

(* ------------------------------------------------------------------ *)
(* 1b. Decision agreement                                              *)
(* ------------------------------------------------------------------ *)

(* One transaction, one fate.  A transaction can be decided more than once
   (a recovery coordinator re-deriving the outcome of a dangling
   transaction is allowed to re-announce it), but every announcement must
   agree: a cross-partition transaction whose groups settle on different
   outcomes is exactly the torn commit sharding must never produce. *)
let check_decision_agreement txns =
  List.fold_left
    (fun out i ->
      if
        List.mem Txn.Committed i.decisions
        && List.exists (function Txn.Aborted _ -> true | Txn.Committed -> false) i.decisions
      then
        {
          invariant = "decision-agreement";
          detail =
            Printf.sprintf "txn %s decided both Committed and Aborted (%s)" i.txid
              (String.concat ", " (List.map Event.outcome_string i.decisions));
        }
        :: out
      else out)
    [] txns

(* ------------------------------------------------------------------ *)
(* 1b'. Option agreement                                               *)
(* ------------------------------------------------------------------ *)

(* One option, one learned value (Paxos Commit runs one consensus instance
   per option): a learn that contradicts the option's first learn means two
   quorums chose different values for one record instance.  The history
   noted each contradiction as it was recorded. *)
let check_option_agreement history =
  let learn (e : History.entry) =
    let said role decision =
      Printf.sprintf "%s by %s node%d at %.1f"
        (match decision with
        | Mdcc_core.Woption.Accepted -> "accepted"
        | Mdcc_core.Woption.Rejected -> "rejected")
        role e.History.node e.History.at
    in
    match e.History.event with
    | Event.Learned { decision; _ } -> said "coordinator" decision
    | Event.Classic_learned { decision; _ } -> said "master" decision
    | _ -> "?"
  in
  List.map
    (fun (c : History.contradiction) ->
      {
        invariant = "option-agreement";
        detail =
          Printf.sprintf "option %s %s learned %s, then %s" c.History.c_txid
            (Key.to_string c.History.c_key) (learn c.History.c_first) (learn c.History.c_second);
      })
    (History.contradictions history)

(* ------------------------------------------------------------------ *)
(* 1c. Cross-partition atomicity                                       *)
(* ------------------------------------------------------------------ *)

(* Atomic visibility, attributed to partition groups.  For a transaction
   whose write-set spans two or more hash partitions, visibility evidence
   must point the same way in every group: a commit applied by partition A
   but voided by partition B (or an abort that leaked an execution into
   any group) is a torn cross-partition transaction, reported with the
   groups named so a replay starts at the right replica set.  With one
   partition (the default [partition_of]) the check is inert — the plain
   atomic-visibility invariant already covers single-group mixes. *)
let check_cross_partition ~partition_of txns =
  (* Does a write-set reach beyond partition [p]?  Asked of the keys after
     the first, so a single-key write-set is answered at once. *)
  let rec beyond p = function
    | [] -> false
    | (key, _) :: rest -> partition_of key <> p || beyond p rest
  in
  let groups entries =
    List.filter_map
      (fun (e : History.entry) ->
        match e.History.event with
        | Event.Applied { key; _ } | Event.Repaired { key; _ } | Event.Voided { key; _ } ->
          Some (partition_of key)
        | _ -> None)
      entries
    |> List.sort_uniq Int.compare
    |> List.map (Printf.sprintf "p%02d")
    |> String.concat ","
  in
  let torn i =
    match i.txn with
    | Some { Txn.updates = (first, _) :: rest; _ } when beyond (partition_of first) rest ->
      if committed i && i.voided <> [] then
        Some
          (Printf.sprintf "committed txn %s torn across groups: applied in [%s], voided in [%s]"
             i.txid (groups i.applied) (groups i.voided))
      else if (not (committed i)) && i.applied <> [] then
        Some
          (Printf.sprintf "aborted txn %s leaked execution into group(s) [%s]" i.txid
             (groups i.applied))
      else None
    | Some _ | None -> None
  in
  List.fold_left
    (fun out i ->
      match torn i with
      | Some detail -> { invariant = "cross-partition-atomicity"; detail } :: out
      | None -> out)
    [] txns

(* ------------------------------------------------------------------ *)
(* 2. Lost updates                                                     *)
(* ------------------------------------------------------------------ *)

(* Per key, the committed physical/delete writers as (vread, txid), for
   the lost-update and read-committed checks. *)
let committed_writers txns =
  let writers : (int * Txn.id) list Key.Tbl.t = Key.Tbl.create 16 in
  List.iter
    (fun i ->
      match i.txn with
      | Some txn when committed i ->
        List.iter
          (fun (key, up) ->
            match up with
            | Update.Physical { vread; _ } | Update.Delete { vread } ->
              let existing = try Key.Tbl.find writers key with Not_found -> [] in
              Key.Tbl.replace writers key ((vread, i.txid) :: existing)
            | Update.Insert _ | Update.Delta _ | Update.Read_guard _ -> ())
          txn.Txn.updates
      | Some _ | None -> ())
    txns;
  writers

(* A writer from version [vread]. *)
let rec has_vread vread = function
  | [] -> false
  | (v, _) :: rest -> v = vread || has_vread vread rest

(* Two writers of one key from one version.  Checked pairwise: a key has
   few writers, and a clean key is then never sorted. *)
let rec shares_vread = function
  | [] -> false
  | (vread, _) :: rest -> has_vread vread rest || shares_vread rest

(* In descending (key, vread) order, each run's txids ascending. *)
let check_lost_updates writers =
  let rec runs key out = function
    | (vread, _) :: _ as ws ->
      let same, rest = List.partition (fun (v, _) -> v = vread) ws in
      let out =
        match same with
        | [] | [ _ ] -> out
        | _ ->
          {
            invariant = "lost-update";
            detail =
              Printf.sprintf "%d committed writers of %s from version %d: %s" (List.length same)
                (Key.to_string key) vread
                (String.concat ", " (List.map snd same));
          }
          :: out
      in
      runs key out rest
    | [] -> out
  in
  List.fold_left
    (fun out (key, ws) -> if shares_vread ws then runs key out (List.sort compare ws) else out)
    [] (Key.Tbl.sorted_bindings writers)

(* ------------------------------------------------------------------ *)
(* 3. Read-committed visibility                                        *)
(* ------------------------------------------------------------------ *)

let check_read_committed ~writers txns =
  (* Versions that ever existed per key: the initial load (<= 1), every
     version a replica committed (Applied events), and the version every
     committed physical/delete installed (vread + 1) — the latter covers
     replicas whose execution was subsumed by a re-base. *)
  let applied : int list Key.Tbl.t = Key.Tbl.create 16 in
  List.iter
    (fun i ->
      List.iter
        (fun (e : History.entry) ->
          match e.History.event with
          | Event.Applied { key; version; _ } | Event.Repaired { key; version; _ } -> (
            match Key.Tbl.find applied key with
            | vs -> if not (List.mem version vs) then Key.Tbl.replace applied key (version :: vs)
            | exception Not_found -> Key.Tbl.add applied key [ version ])
          | _ -> ())
        i.applied)
    txns;
  let existed key v =
    v <= 1
    || (match Key.Tbl.find applied key with vs -> List.mem v vs | exception Not_found -> false)
    || match Key.Tbl.find writers key with ws -> has_vread (v - 1) ws | exception Not_found -> false
  in
  (* The reads of [i]: the [vread] of its physical, delete and read-guard
     updates. *)
  let rec reads i out = function
    | [] -> out
    | (key, (Update.Physical { vread; _ } | Update.Delete { vread } | Update.Read_guard { vread }))
      :: rest
      when not (existed key vread) ->
      let detail =
        Printf.sprintf "txn %s read %s at version %d, which never existed" i.txid
          (Key.to_string key) vread
      in
      reads i ({ invariant = "read-committed"; detail } :: out) rest
    | _ :: rest -> reads i out rest
  in
  List.fold_left
    (fun out i ->
      match i.txn with
      | Some txn when committed i -> reads i out txn.Txn.updates
      | Some _ | None -> out)
    [] txns

(* ------------------------------------------------------------------ *)
(* 4. Serializability: conflict-graph acyclicity                       *)
(* ------------------------------------------------------------------ *)

(* Classic (non-commutative) transaction: all updates carry read versions,
   so its position in the per-key version order is well defined. *)
let is_classic (txn : Txn.t) =
  List.for_all
    (fun (_, up) ->
      match up with
      | Update.Physical _ | Update.Delete _ | Update.Read_guard _ | Update.Insert _ -> true
      | Update.Delta _ -> false)
    txn.Txn.updates

(* The version an insert of [key] installed: the lowest one a replica
   committed it at, or 1. *)
let insert_version i key =
  List.fold_left
    (fun acc (e : History.entry) ->
      match e.History.event with
      | (Event.Applied { key = k; version; _ } | Event.Repaired { key = k; version; _ })
        when Key.equal k key ->
        Some (match acc with Some v -> min v version | None -> version)
      | _ -> acc)
    None i.applied
  |> Option.value ~default:1

(* The write-set of a participant. *)
let updates i = match i.txn with Some txn -> txn.Txn.updates | None -> []

(* A conflict-graph edge: [a] serializes before [b]. *)
let edge a b = if a != b && not (List.memq b a.succs) then a.succs <- b :: a.succs

let add_writer writers key i wver =
  let existing = try Key.Tbl.find writers key with Not_found -> [] in
  Key.Tbl.replace writers key ((i, wver) :: existing)

(* [i]'s writes onto their keys' writer lists, with the version each
   installed. *)
let rec add_writes writers i = function
  | [] -> ()
  | (key, up) :: rest ->
    (match up with
    | Update.Physical { vread; _ } | Update.Delete { vread } -> add_writer writers key i (vread + 1)
    | Update.Insert _ -> add_writer writers key i (insert_version i key)
    | Update.Delta _ | Update.Read_guard _ -> ());
    add_writes writers i rest

(* WR and RW: a reader of (key, v) comes after every writer that installed
   a version <= v and before every writer that installed a version > v. *)
let rec order_reader i v = function
  | [] -> ()
  | (w, wver) :: rest ->
    if wver <= v then edge w i else edge i w;
    order_reader i v rest

let rec order_reads writers i = function
  | [] -> ()
  | (key, (Update.Physical { vread = v; _ } | Update.Delete { vread = v } | Update.Read_guard { vread = v }))
    :: rest ->
    (match Key.Tbl.find writers key with
    | ws -> order_reader i v ws
    | exception Not_found -> ());
    order_reads writers i rest
  | (_, (Update.Insert _ | Update.Delta _)) :: rest -> order_reads writers i rest

(* WW: consecutive writers in the version order. *)
let rec link = function
  | (a, _) :: ((b, _) :: _ as tl) ->
    edge a b;
    link tl
  | [ _ ] | [] -> ()

let check_serializability txns =
  (* Participants: committed classic transactions with known write-sets,
     in descending txid order. *)
  let participants =
    List.fold_left
      (fun acc i ->
        match i.txn with
        | Some txn when committed i && is_classic txn -> i :: acc
        | Some _ | None -> acc)
      [] txns
  in
  (* Writers per key with the version each write installed. *)
  let writers : (info * int) list Key.Tbl.t = Key.Tbl.create 16 in
  List.iter (fun i -> add_writes writers i (updates i)) participants;
  Key.Tbl.sorted_iter
    (fun _ l -> link (List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) l))
    writers;
  List.iter (fun i -> order_reads writers i (updates i)) participants;
  (* Cycle detection (iterative-enough DFS; histories are small). *)
  let cycle = ref None in
  let rec dfs path node =
    if Option.is_none !cycle then begin
      match node.color with
      | 1 ->
        (* Back edge: the segment of the path (recent-first) from the caller
           back to [node] is the cycle. *)
        let rec seg = function
          | x :: _ when x == node -> [ x ]
          | x :: tl -> x :: seg tl
          | [] -> []
        in
        cycle := Some (List.rev (seg path) @ [ node ])
      | 0 ->
        node.color <- 1;
        visit (node :: path) node.succs;
        node.color <- 2
      | _ -> ()
    end
  and visit path = function
    | [] -> ()
    | next :: rest ->
      dfs path next;
      visit path rest
  in
  (* DFS roots in txid order: *which* cycle gets reported must be a pure
     function of the history. *)
  List.iter (fun i -> if Option.is_none !cycle then dfs [] i) (List.rev participants);
  match !cycle with
  | None -> []
  | Some path ->
    [
      {
        invariant = "serializability";
        detail =
          Printf.sprintf "conflict cycle among committed transactions: %s"
            (String.concat " -> " (List.map (fun i -> i.txid) path));
      };
    ]

(* ------------------------------------------------------------------ *)
(* 5. Demarcation: value constraints at every replica-visible state    *)
(* ------------------------------------------------------------------ *)

let bound_to_string (b : Schema.bound) =
  match (b.Schema.lower, b.Schema.upper) with
  | Some lo, Some hi -> Printf.sprintf "%d <= %s <= %d" lo b.Schema.attr hi
  | Some lo, None -> Printf.sprintf "%s >= %d" b.Schema.attr lo
  | None, Some hi -> Printf.sprintf "%s <= %d" b.Schema.attr hi
  | None, None -> "(no bound)"

(* The bounds a replica's write of [key] at [version] breaks, consed onto
   [out] in bound order. *)
let rec breaches i (e : History.entry) key version value out = function
  | [] -> out
  | (b : Schema.bound) :: rest ->
    let v = Value.get_int value b.Schema.attr in
    let out =
      if Schema.check_bound b v then out
      else
        {
          invariant = "demarcation";
          detail =
            Printf.sprintf "node%d committed %s@%d with %s = %d (txn %s), violating %s"
              e.History.node (Key.to_string key) version b.Schema.attr v i.txid
              (bound_to_string b);
        }
        :: out
    in
    breaches i e key version value out rest

let check_demarcation ~bounds txns =
  (* A transaction's writes newest first, as the reports have them. *)
  let rec newest_first i out = function
    | [] -> out
    | (e : History.entry) :: newer -> (
      let out = newest_first i out newer in
      match e.History.event with
      | Event.Applied { key; version; value; _ } | Event.Repaired { key; version; value; _ } ->
        breaches i e key version value out (bounds key)
      | _ -> out)
  in
  List.fold_left (fun out i -> newest_first i out i.applied) [] txns

let check ?(bounds = fun _ -> []) ?(partition_of = fun _ -> 0) history =
  let txns = gather history in
  let writers = committed_writers txns in
  List.concat
    [
      check_atomic_visibility txns;
      check_decision_agreement txns;
      check_option_agreement history;
      check_cross_partition ~partition_of txns;
      check_lost_updates writers;
      check_read_committed ~writers txns;
      check_serializability txns;
      check_demarcation ~bounds txns;
    ]
