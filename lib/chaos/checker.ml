open Mdcc_storage
module History = Mdcc_core.History
module Event = Mdcc_core.Event
module Table = Mdcc_util.Table

type violation = { invariant : string; detail : string }

let violation_to_string v = Printf.sprintf "[%s] %s" v.invariant v.detail

(* Everything the checker knows about one transaction id. *)
type info = {
  mutable txn : Txn.t option;  (* from Submitted *)
  mutable decided : Txn.outcome option;  (* first Decided *)
  mutable decisions : Txn.outcome list;  (* every Decided, event order *)
  mutable applied : (int * Key.t * int * Value.t) list;  (* node, key, version, value *)
  mutable voided : (int * Key.t) list;  (* node, key *)
}

(* Every transaction id the history names, with what it knows of it, in
   txid order: each check walks this one list, so reports list violations
   in txid order without sorting the table again. *)
let gather history =
  let tbl : (Txn.id, info) Hashtbl.t = Hashtbl.create 256 in
  let get txid =
    match Hashtbl.find_opt tbl txid with
    | Some i -> i
    | None ->
      let i = { txn = None; decided = None; decisions = []; applied = []; voided = [] } in
      Hashtbl.add tbl txid i;
      i
  in
  List.iter
    (fun { History.node; event; _ } ->
      match event with
      | Event.Submitted txn -> (get txn.Txn.id).txn <- Some txn
      | Event.Decided { txid; outcome } ->
        let i = get txid in
        i.decisions <- i.decisions @ [ outcome ];
        if i.decided = None then i.decided <- Some outcome
      | Event.Applied { txid; key; version; value; wrote = true }
      | Event.Repaired { txid; key; version; value; _ } ->
        let i = get txid in
        i.applied <- (node, key, version, value) :: i.applied
      | Event.Voided { txid; key } ->
        let i = get txid in
        i.voided <- (node, key) :: i.voided
      | _ -> (* faults, and steps the history does not keep ([Event.in_history]) *) ())
    (History.events history);
  Table.sorted_bindings ~compare:String.compare tbl

(* Did the transaction commit?  Prefer the coordinator's decision; fall back
   to visibility evidence for transactions finished by recovery alone. *)
let committed info =
  match info.decided with
  | Some Txn.Committed -> true
  | Some (Txn.Aborted _) -> false
  | None -> info.applied <> []

(* The read-set of a submitted transaction: (key, version) pairs carried as
   the vread of its physical / delete / read-guard updates. *)
let reads_of (txn : Txn.t) =
  List.filter_map
    (fun (key, up) ->
      match up with
      | Update.Physical { vread; _ } | Update.Delete { vread } | Update.Read_guard { vread } ->
        Some (key, vread)
      | Update.Insert _ | Update.Delta _ -> None)
    txn.Txn.updates

(* ------------------------------------------------------------------ *)
(* 1. Atomic visibility                                                *)
(* ------------------------------------------------------------------ *)

let check_atomic_visibility txns =
  let out = ref [] in
  List.iter
    (fun (txid, info) ->
      let add detail = out := { invariant = "atomic-visibility"; detail } :: !out in
      if info.applied <> [] && info.voided <> [] then
        add
          (Printf.sprintf "txn %s executed at %s but voided at %s" txid
             (String.concat "," (List.map (fun (n, _, _, _) -> Printf.sprintf "node%d" n) info.applied))
             (String.concat "," (List.map (fun (n, _) -> Printf.sprintf "node%d" n) info.voided)))
      else begin
        match info.decided with
        | Some Txn.Committed when info.voided <> [] ->
          add (Printf.sprintf "txn %s decided Committed but voided at a replica" txid)
        | Some (Txn.Aborted _) when info.applied <> [] ->
          add (Printf.sprintf "txn %s decided Aborted but executed at a replica" txid)
        | Some _ | None -> ()
      end)
    txns;
  !out

(* ------------------------------------------------------------------ *)
(* 1b. Decision agreement                                              *)
(* ------------------------------------------------------------------ *)

(* One transaction, one fate.  A transaction can be decided more than once
   (a recovery coordinator re-deriving the outcome of a dangling
   transaction is allowed to re-announce it), but every announcement must
   agree: a cross-partition transaction whose groups settle on different
   outcomes is exactly the torn commit sharding must never produce. *)
let check_decision_agreement txns =
  let out = ref [] in
  List.iter
    (fun (txid, info) ->
      let commits = List.exists (fun o -> o = Txn.Committed) info.decisions in
      let aborts =
        List.exists (function Txn.Aborted _ -> true | Txn.Committed -> false) info.decisions
      in
      if commits && aborts then
        out :=
          {
            invariant = "decision-agreement";
            detail =
              Printf.sprintf "txn %s decided both Committed and Aborted (%s)" txid
                (String.concat ", "
                   (List.map (Format.asprintf "%a" Txn.pp_outcome) info.decisions));
          }
          :: !out)
    txns;
  !out

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
  let out = ref [] in
  let module IS = Set.Make (Int) in
  let groups_of keys = IS.elements (IS.of_list (List.map partition_of keys)) in
  let render ps =
    String.concat "," (List.map (Printf.sprintf "p%02d") ps)
  in
  List.iter
    (fun (txid, info) ->
      match info.txn with
      | Some txn when List.length (groups_of (List.map fst txn.Txn.updates)) >= 2 ->
        let applied_in = groups_of (List.map (fun (_, k, _, _) -> k) info.applied) in
        let voided_in = groups_of (List.map snd info.voided) in
        let add detail =
          out := { invariant = "cross-partition-atomicity"; detail } :: !out
        in
        if committed info && voided_in <> [] then
          add
            (Printf.sprintf
               "committed txn %s torn across groups: applied in [%s], voided in [%s]" txid
               (render applied_in) (render voided_in))
        else if (not (committed info)) && applied_in <> [] then
          add
            (Printf.sprintf "aborted txn %s leaked execution into group(s) [%s]" txid
               (render applied_in))
      | Some _ | None -> ())
    txns;
  !out

(* ------------------------------------------------------------------ *)
(* 2. Lost updates                                                     *)
(* ------------------------------------------------------------------ *)

let check_lost_updates txns =
  (* (key, vread) -> committed physical/delete writers *)
  let writers : (Key.t * int, Txn.id list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (txid, info) ->
      match info.txn with
      | Some txn when committed info ->
        List.iter
          (fun (key, up) ->
            match up with
            | Update.Physical { vread; _ } | Update.Delete { vread } ->
              let k = (key, vread) in
              let existing = Option.value (Hashtbl.find_opt writers k) ~default:[] in
              Hashtbl.replace writers k (txid :: existing)
            | Update.Insert _ | Update.Delta _ | Update.Read_guard _ -> ())
          txn.Txn.updates
      | Some _ | None -> ())
    txns;
  List.fold_left
    (fun acc ((key, vread), txids) ->
      match txids with
      | [] | [ _ ] -> acc
      | _ ->
        {
          invariant = "lost-update";
          detail =
            Printf.sprintf "%d committed writers of %s from version %d: %s" (List.length txids)
              (Key.to_string key) vread
              (String.concat ", " (List.sort String.compare txids));
        }
        :: acc)
    [] (Table.sorted_bindings writers)

(* ------------------------------------------------------------------ *)
(* 3. Read-committed visibility                                        *)
(* ------------------------------------------------------------------ *)

let check_read_committed txns =
  (* Versions that ever existed per key: the initial load (<= 1), every
     version a replica committed (Applied events), and the version every
     committed physical/delete installed (vread + 1) — the latter covers
     replicas whose execution was subsumed by a re-base. *)
  let valid : (Key.t, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
  let mark key v =
    let set =
      match Hashtbl.find_opt valid key with
      | Some s -> s
      | None ->
        let s = Hashtbl.create 16 in
        Hashtbl.add valid key s;
        s
    in
    Hashtbl.replace set v ()
  in
  let is_valid key v =
    v <= 1
    || (match Hashtbl.find_opt valid key with Some s -> Hashtbl.mem s v | None -> false)
  in
  List.iter
    (fun (_, info) ->
      List.iter (fun (_, key, version, _) -> mark key version) info.applied;
      match info.txn with
      | Some txn when committed info ->
        List.iter
          (fun (key, up) ->
            match up with
            | Update.Physical { vread; _ } | Update.Delete { vread } -> mark key (vread + 1)
            | Update.Insert _ | Update.Delta _ | Update.Read_guard _ -> ())
          txn.Txn.updates
      | Some _ | None -> ())
    txns;
  let out = ref [] in
  List.iter
    (fun (txid, info) ->
      match info.txn with
      | Some txn when committed info ->
        List.iter
          (fun (key, vread) ->
            if not (is_valid key vread) then
              out :=
                {
                  invariant = "read-committed";
                  detail =
                    Printf.sprintf "txn %s read %s at version %d, which never existed" txid
                      (Key.to_string key) vread;
                }
                :: !out)
          (reads_of txn)
      | Some _ | None -> ())
    txns;
  !out

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

let check_serializability txns =
  (* Participants: committed classic transactions with known write-sets. *)
  let participants : (Txn.id * Txn.t * info) list =
    List.fold_left
      (fun acc (txid, info) ->
        match info.txn with
        | Some txn when committed info && is_classic txn -> (txid, txn, info) :: acc
        | Some _ | None -> acc)
      [] txns
  in
  (* Writers per key with the version each write installed. *)
  let writers : (Key.t, (Txn.id * int) list ref) Hashtbl.t = Hashtbl.create 64 in
  let add_writer key txid wver =
    match Hashtbl.find_opt writers key with
    | Some l -> l := (txid, wver) :: !l
    | None -> Hashtbl.add writers key (ref [ (txid, wver) ])
  in
  List.iter
    (fun (txid, txn, info) ->
      List.iter
        (fun (key, up) ->
          match up with
          | Update.Physical { vread; _ } | Update.Delete { vread } -> add_writer key txid (vread + 1)
          | Update.Insert _ ->
            (* Position an insert by the version a replica committed it at. *)
            let versions =
              List.filter_map
                (fun (_, k, v, _) -> if Key.equal k key then Some v else None)
                info.applied
            in
            let wver = match versions with [] -> 1 | vs -> List.fold_left min max_int vs in
            add_writer key txid wver
          | Update.Delta _ | Update.Read_guard _ -> ())
        txn.Txn.updates)
    participants;
  (* Conflict-graph edges from the version order. *)
  let edges : (Txn.id, Txn.id list ref) Hashtbl.t = Hashtbl.create 64 in
  let edge a b =
    if not (String.equal a b) then begin
      match Hashtbl.find_opt edges a with
      | Some l -> if not (List.mem b !l) then l := b :: !l
      | None -> Hashtbl.add edges a (ref [ b ])
    end
  in
  List.iter (fun (txid, _, _) -> if not (Hashtbl.mem edges txid) then Hashtbl.add edges txid (ref [])) participants;
  (* WW: per-key version order. *)
  Table.sorted_iter
    (fun _ l ->
      let sorted = List.sort (fun (_, a) (_, b) -> Int.compare a b) !l in
      let rec link = function
        | (a, _) :: ((b, _) :: _ as tl) ->
          edge a b;
          link tl
        | [ _ ] | [] -> ()
      in
      link sorted)
    writers;
  (* WR and RW: a reader of (key, v) comes after every writer that installed
     a version <= v and before every writer that installed a version > v. *)
  List.iter
    (fun (txid, txn, _) ->
      List.iter
        (fun (key, v) ->
          match Hashtbl.find_opt writers key with
          | None -> ()
          | Some l ->
            List.iter
              (fun (w, wver) -> if wver <= v then edge w txid else edge txid w)
              !l)
        (reads_of txn))
    participants;
  (* Cycle detection (iterative-enough DFS; histories are small). *)
  let color : (Txn.id, int) Hashtbl.t = Hashtbl.create 64 in
  let cycle = ref None in
  let rec dfs path node =
    if !cycle = None then begin
      match Hashtbl.find_opt color node with
      | Some 1 ->
        (* Back edge: the segment of the path (recent-first) from the caller
           back to [node] is the cycle. *)
        let rec seg = function
          | x :: _ when String.equal x node -> [ x ]
          | x :: tl -> x :: seg tl
          | [] -> []
        in
        cycle := Some ((List.rev (seg path) @ [ node ]))
      | Some _ -> ()
      | None ->
        Hashtbl.replace color node 1;
        (match Hashtbl.find_opt edges node with
        | Some l -> List.iter (dfs (node :: path)) !l
        | None -> ());
        Hashtbl.replace color node 2
    end
  in
  (* DFS roots in sorted order: *which* cycle gets reported must be a pure
     function of the history, not of hash-table layout. *)
  List.iter
    (fun (node, _) -> if !cycle = None then dfs [] node)
    (Table.sorted_bindings ~compare:String.compare edges);
  match !cycle with
  | None -> []
  | Some path ->
    [
      {
        invariant = "serializability";
        detail =
          Printf.sprintf "conflict cycle among committed transactions: %s"
            (String.concat " -> " path);
      };
    ]

(* ------------------------------------------------------------------ *)
(* 5. Demarcation: value constraints at every replica-visible state    *)
(* ------------------------------------------------------------------ *)

let check_demarcation ~bounds txns =
  let out = ref [] in
  List.iter
    (fun (txid, info) ->
      List.iter
        (fun (node, key, version, value) ->
          List.iter
            (fun (b : Schema.bound) ->
              let v = Value.get_int value b.Schema.attr in
              if not (Schema.check_bound b v) then
                out :=
                  {
                    invariant = "demarcation";
                    detail =
                      Printf.sprintf "node%d committed %s@%d with %s = %d (txn %s), violating %s"
                        node (Key.to_string key) version b.Schema.attr v txid
                        (match (b.Schema.lower, b.Schema.upper) with
                        | Some lo, Some hi -> Printf.sprintf "%d <= %s <= %d" lo b.Schema.attr hi
                        | Some lo, None -> Printf.sprintf "%s >= %d" b.Schema.attr lo
                        | None, Some hi -> Printf.sprintf "%s <= %d" b.Schema.attr hi
                        | None, None -> "(no bound)");
                  }
                  :: !out)
            (bounds key))
        info.applied)
    txns;
  !out

let check ?(bounds = fun _ -> []) ?(partition_of = fun _ -> 0) history =
  let txns = gather history in
  List.concat
    [
      check_atomic_visibility txns;
      check_decision_agreement txns;
      check_cross_partition ~partition_of txns;
      check_lost_updates txns;
      check_read_committed txns;
      check_serializability txns;
      check_demarcation ~bounds txns;
    ]
