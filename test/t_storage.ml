(* Unit tests for the storage substrate: values, keys, schema, updates,
   transactions and the versioned store. *)

open Mdcc_storage

let key_a = Key.make ~table:"item" ~id:"a"

let test_value_basics () =
  let v = Value.of_list [ ("stock", Value.Int 5); ("name", Value.Str "x") ] in
  Alcotest.(check int) "get_int" 5 (Value.get_int v "stock");
  Alcotest.(check int) "missing attr is 0" 0 (Value.get_int v "absent");
  Alcotest.(check bool) "get some" true (Value.get v "name" <> None);
  let v2 = Value.add_delta v "stock" (-2) in
  Alcotest.(check int) "delta applied" 3 (Value.get_int v2 "stock");
  Alcotest.(check int) "original untouched" 5 (Value.get_int v "stock");
  let v3 = Value.add_delta v "fresh" 7 in
  Alcotest.(check int) "delta creates attr" 7 (Value.get_int v3 "fresh")

let test_value_get_int_on_string () =
  let v = Value.of_list [ ("name", Value.Str "x") ] in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Value.get_int v "name");
       false
     with Invalid_argument _ -> true)

let test_value_equal () =
  let a = Value.of_list [ ("x", Value.Int 1); ("y", Value.Str "s") ] in
  let b = Value.of_list [ ("y", Value.Str "s"); ("x", Value.Int 1) ] in
  Alcotest.(check bool) "order independent" true (Value.equal a b);
  Alcotest.(check bool) "differ" false (Value.equal a (Value.set a "x" (Value.Int 2)))

let test_key_ordering () =
  let a = Key.make ~table:"a" ~id:"2" and b = Key.make ~table:"b" ~id:"1" in
  Alcotest.(check bool) "table first" true (Key.compare a b < 0);
  Alcotest.(check bool) "equal" true (Key.equal key_a (Key.make ~table:"item" ~id:"a"));
  Alcotest.(check string) "to_string" "item/a" (Key.to_string key_a)

let stock_bound = { Schema.attr = "stock"; lower = Some 0; upper = Some 100 }

let schema =
  Schema.create
    [ { Schema.name = "item"; bounds = [ stock_bound ]; master_dc = 2 } ]

let test_schema_lookup () =
  Alcotest.(check int) "master dc" 2 (Schema.master_dc schema key_a);
  Alcotest.(check int) "bounds" 1 (List.length (Schema.bounds_of schema key_a));
  Alcotest.(check bool) "unknown table raises" true
    (try
       ignore (Schema.table schema "nope");
       false
     with Not_found -> true)

let test_schema_duplicate () =
  Alcotest.(check bool) "duplicate raises" true
    (try
       ignore
         (Schema.create
            [
              { Schema.name = "t"; bounds = []; master_dc = 0 };
              { Schema.name = "t"; bounds = []; master_dc = 1 };
            ]);
       false
     with Invalid_argument _ -> true)

let test_schema_check_value () =
  let ok = Value.of_list [ ("stock", Value.Int 50) ] in
  let low = Value.of_list [ ("stock", Value.Int (-1)) ] in
  let high = Value.of_list [ ("stock", Value.Int 101) ] in
  Alcotest.(check bool) "in bounds" true (Schema.check_value schema key_a ok);
  Alcotest.(check bool) "below" false (Schema.check_value schema key_a low);
  Alcotest.(check bool) "above" false (Schema.check_value schema key_a high);
  (* Missing attribute counts as 0, which is inside [0,100]. *)
  Alcotest.(check bool) "missing ok" true (Schema.check_value schema key_a Value.empty)

let test_txn_duplicate_key_rejected () =
  Alcotest.(check bool) "duplicate key raises" true
    (try
       ignore
         (Txn.make ~id:"t"
            ~updates:
              [ (key_a, Update.Delta [ ("stock", -1) ]); (key_a, Update.Delta [ ("stock", -1) ]) ]);
       false
     with Invalid_argument _ -> true)

let test_txn_predicates () =
  let ro = Txn.make ~id:"r" ~updates:[] in
  Alcotest.(check bool) "read only" true (Txn.is_read_only ro);
  let d = Txn.make ~id:"d" ~updates:[ (key_a, Update.Delta [ ("stock", -1) ]) ] in
  Alcotest.(check bool) "commutative only" true (Txn.commutative_only d);
  let m =
    Txn.make ~id:"m"
      ~updates:
        [
          (key_a, Update.Delta [ ("stock", -1) ]);
          (Key.make ~table:"item" ~id:"b", Update.Insert Value.empty);
        ]
  in
  Alcotest.(check bool) "mixed not commutative-only" false (Txn.commutative_only m)

let fresh_store () = Store.create schema

let test_store_insert_read () =
  let s = fresh_store () in
  Alcotest.(check bool) "absent" true (Store.read s key_a = None);
  Alcotest.(check int) "version 0" 0 (Store.version s key_a);
  Store.apply s key_a (Update.Insert (Value.of_list [ ("stock", Value.Int 9) ]));
  (match Store.read s key_a with
  | Some (v, ver) ->
    Alcotest.(check int) "value" 9 (Value.get_int v "stock");
    Alcotest.(check int) "version 1" 1 ver
  | None -> Alcotest.fail "expected row");
  Alcotest.(check int) "size" 1 (Store.size s)

let test_store_validate () =
  let s = fresh_store () in
  Alcotest.(check bool) "insert ok on absent" true (Store.validate s key_a (Update.Insert Value.empty));
  Alcotest.(check bool) "physical fails on absent" false
    (Store.validate s key_a (Update.Physical { vread = 0; value = Value.empty }));
  Store.apply s key_a (Update.Insert Value.empty);
  Alcotest.(check bool) "insert fails on present" false
    (Store.validate s key_a (Update.Insert Value.empty));
  Alcotest.(check bool) "physical ok at v1" true
    (Store.validate s key_a (Update.Physical { vread = 1; value = Value.empty }));
  Alcotest.(check bool) "physical stale" false
    (Store.validate s key_a (Update.Physical { vread = 0; value = Value.empty }));
  Alcotest.(check bool) "delta ok when exists" true
    (Store.validate s key_a (Update.Delta [ ("stock", 1) ]))

let test_store_version_jump () =
  (* Applying a physical update sets version = vread + 1: a replica that
     missed an update converges when it executes the next one. *)
  let s = fresh_store () in
  Store.apply s key_a (Update.Insert (Value.of_list [ ("stock", Value.Int 1) ]));
  Store.apply s key_a
    (Update.Physical { vread = 4; value = Value.of_list [ ("stock", Value.Int 42) ] });
  Alcotest.(check int) "version jumped" 5 (Store.version s key_a);
  match Store.read s key_a with
  | Some (v, _) -> Alcotest.(check int) "value" 42 (Value.get_int v "stock")
  | None -> Alcotest.fail "row"

let test_store_delete_and_reinsert () =
  let s = fresh_store () in
  Store.apply s key_a (Update.Insert (Value.of_list [ ("stock", Value.Int 1) ]));
  Store.apply s key_a (Update.Delete { vread = 1 });
  Alcotest.(check bool) "gone" true (Store.read s key_a = None);
  Alcotest.(check int) "tombstone version" 2 (Store.version s key_a);
  Store.apply s key_a (Update.Insert (Value.of_list [ ("stock", Value.Int 3) ]));
  match Store.read s key_a with
  | Some (v, ver) ->
    Alcotest.(check int) "reinserted" 3 (Value.get_int v "stock");
    Alcotest.(check int) "version continues" 3 ver
  | None -> Alcotest.fail "row"

let test_store_delta_apply () =
  let s = fresh_store () in
  Store.apply s key_a (Update.Insert (Value.of_list [ ("stock", Value.Int 10) ]));
  Store.apply s key_a (Update.Delta [ ("stock", -3); ("sold", 3) ]);
  match Store.read s key_a with
  | Some (v, ver) ->
    Alcotest.(check int) "stock" 7 (Value.get_int v "stock");
    Alcotest.(check int) "sold" 3 (Value.get_int v "sold");
    Alcotest.(check int) "version" 2 ver
  | None -> Alcotest.fail "row"

let test_store_fold_iter () =
  let s = fresh_store () in
  for i = 0 to 9 do
    Store.apply s (Key.make ~table:"item" ~id:(string_of_int i)) (Update.Insert Value.empty)
  done;
  Alcotest.(check int) "fold counts" 10 (Store.fold s ~init:0 ~f:(fun _ _ acc -> acc + 1));
  let n = ref 0 in
  Store.iter s (fun _ _ -> incr n);
  Alcotest.(check int) "iter counts" 10 !n

(* Property: a random interleaving of valid updates keeps version strictly
   increasing and equal to the number of applied updates when they are all
   deltas after one insert. *)
let prop_delta_versions =
  QCheck.Test.make ~name:"store versions count applied updates" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 30) (int_range (-5) 5))
    (fun deltas ->
      let s = fresh_store () in
      Store.apply s key_a (Update.Insert Value.empty);
      List.iter (fun d -> Store.apply s key_a (Update.Delta [ ("stock", d) ])) deltas;
      Store.version s key_a = 1 + List.length deltas
      && Value.get_int (fst (Option.get (Store.read s key_a))) "stock"
         = List.fold_left ( + ) 0 deltas)

(* --- applied-set merging (anti-entropy repair substrate) --------------- *)

module Acceptor = Mdcc_core.Acceptor
module Messages = Mdcc_core.Messages

let up i = Update.Delta [ ("stock", -i) ]

let item = Key.make ~table:"item" ~id:"k"

(* A fresh acceptor, its store holding a live row for [item]. *)
let acceptor () =
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let store = Store.create schema in
  let row = Store.ensure store item in
  row.Store.exists <- true;
  Acceptor.create_node ~config:(Mdcc_core.Config.make ~replication:3 ()) store

(* Commit [txid]'s update on [key] at the acceptor: a committed Visibility. *)
let commit ?(key = item) n (txid, u) = Acceptor.visibility n txid key u true

(* An acceptor whose record of [item] committed the entries in the given order. *)
let committed entries =
  let n = acceptor () in
  List.iter (fun e -> ignore (commit n e : Acceptor.visibility)) entries;
  n

(* The applied set of a record that committed the entries in the given order. *)
let applied entries = Acceptor.applied (committed entries) item

let txids s = List.map fst (Txn.Map.bindings s)

let same_set a b = Txn.Map.bindings a = Txn.Map.bindings b

(* Merge as Sync_reply repair does: a record holding [mine] replays every
   entry of [theirs] it is missing. *)
let merge mine theirs =
  let n = committed (Txn.Map.bindings mine) in
  let rs = Acceptor.record n item in
  Txn.Map.iter
    (fun txid u -> Acceptor.repair n rs txid u)
    (Acceptor.applied_missing ~mine:(Acceptor.applied n item) ~theirs);
  Acceptor.applied n item

let test_applied_set_idempotent () =
  let n = committed [ ("t1", up 1); ("t2", up 2) ] in
  let a = Acceptor.applied n item in
  Alcotest.(check bool) "a second commit is ignored" true
    (commit n ("t1", up 1) = Acceptor.Ignored);
  Alcotest.(check int) "re-add is a no-op" 2 (Txn.Map.cardinal (Acceptor.applied n item));
  ignore (commit n ("t1", up 9) : Acceptor.visibility);
  Alcotest.(check bool) "re-add keeps the first update" true
    (Txn.Map.find "t1" (Acceptor.applied n item) = up 1);
  Alcotest.(check bool) "merge with itself is identity" true (same_set (merge a a) a)

let test_applied_set_commutative () =
  let a = applied [ ("t1", up 1); ("t2", up 2) ] in
  let b = applied [ ("t2", up 2); ("t1", up 1) ] in
  Alcotest.(check bool) "insertion order never matters" true (same_set a b);
  let x = applied [ ("t3", up 3) ] in
  Alcotest.(check bool) "merge commutes" true
    (same_set (merge a x) (merge x a))

let test_applied_set_merge_union () =
  let mine = applied [ ("t1", up 1); ("t2", up 2) ] in
  let theirs = applied [ ("t3", up 3); ("t1", up 1) ] in
  Alcotest.(check (list string)) "missing = theirs minus mine" [ "t3" ]
    (txids (Acceptor.applied_missing ~mine ~theirs));
  let merged = merge mine theirs in
  Alcotest.(check (list string)) "union, sorted" [ "t1"; "t2"; "t3" ] (txids merged);
  Alcotest.(check bool) "nothing missing after merge" true
    (Txn.Map.is_empty (Acceptor.applied_missing ~mine:merged ~theirs))

let txid_set l = List.fold_left (fun s txid -> Txn.Map.add txid () s) Txn.Map.empty l

let test_applied_digest_consistent () =
  let d l = Messages.applied_digest (txid_set l) in
  Alcotest.(check int) "permutation invariant"
    (d [ "a"; "b"; "c" ])
    (d [ "c"; "a"; "b" ]);
  Alcotest.(check bool) "membership sensitive" true (d [ "a"; "b" ] <> d [ "a"; "b"; "c" ]);
  (* Digests travel in Sync_request entries between replicas: their values
     are part of the wire format. *)
  Alcotest.(check (list int)) "pinned values" [ 440008032; 310271322; 18652613 ]
    [ d [ "a"; "b"; "c" ]; d [ "t1"; "t2"; "t3" ]; d [] ];
  (* Two replicas that merged the same entries in different orders render
     the same digest — the probe's equal-version divergence test. *)
  let mine = applied [ ("t1", up 1); ("t2", up 2) ] in
  let theirs = applied [ ("t3", up 3); ("t1", up 1) ] in
  let d = Messages.applied_digest in
  Alcotest.(check int) "merged digests agree"
    (d (merge mine theirs))
    (d (merge theirs mine));
  Alcotest.(check bool) "diverged digests differ" true (d mine <> d theirs)

(* The digest as it was computed over the wire list: sort the txids, then
   fold.  The map-backed digest folds the map in order instead; the two
   must agree on every set. *)
let sorted_list_digest txids =
  List.fold_left
    (fun acc txid ->
      String.fold_left (fun a c -> (a * 131) + Char.code c) ((acc * 257) + 1) txid)
    0x811c9dc5
    (List.sort String.compare txids)
  land 0x3FFFFFFF

let prop_digest_matches_sorted_list =
  QCheck.Test.make ~name:"map digest equals the sorted-list digest" ~count:200
    QCheck.(list_of_size Gen.(int_range 0 40) (string_gen_of_size Gen.(int_range 0 8) Gen.printable))
    (fun l ->
      let l = List.sort_uniq String.compare l in
      Messages.applied_digest (txid_set l) = sorted_list_digest (List.rev l))

let prop_sorted_filter_map =
  QCheck.Test.make ~name:"Key.Tbl.sorted_filter_map is filter_map over sorted_bindings"
    ~count:200
    QCheck.(list_of_size Gen.(int_range 0 60) (pair (int_range 0 30) small_nat))
    (fun entries ->
      let tbl = Key.Tbl.create 4 in
      List.iter
        (fun (id, v) -> Key.Tbl.replace tbl (Key.make ~table:"item" ~id:(string_of_int id)) v)
        entries;
      let f (k : Key.t) v = if v mod 3 = 0 then None else Some (k.Key.id, v) in
      Key.Tbl.sorted_filter_map f tbl
      = List.filter_map (fun (k, v) -> f k v) (Key.Tbl.sorted_bindings tbl))

let prop_tbl_any =
  QCheck.Test.make ~name:"Key.Tbl.any is List.exists" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 0 60) (pair (int_range 0 30) small_nat)) small_nat)
    (fun (entries, target) ->
      let tbl = Key.Tbl.create 8 in
      List.iter
        (fun (id, v) -> Key.Tbl.replace tbl (Key.make ~table:"item" ~id:(string_of_int id)) v)
        entries;
      let hit _ v = if v = target then raise Key.Tbl.Found in
      Key.Tbl.any hit tbl
      = List.exists (fun (_, v) -> v = target) (Key.Tbl.sorted_bindings tbl))

(* [Key.hash] hashes the record itself; it must equal the pair hash that
   partition assignment and [Key.Tbl] layout were built on. *)
let prop_key_hash_is_pair_hash =
  QCheck.Test.make ~name:"Key.hash equals Hashtbl.hash of the (table, id) pair" ~count:500
    QCheck.(pair (string_gen_of_size Gen.(int_range 0 12) Gen.printable) string)
    (fun (table, id) -> Key.hash (Key.make ~table ~id) = Hashtbl.hash (table, id))

let test_key_hash_pinned () =
  List.iter
    (fun (table, id, h) ->
      Alcotest.(check int) (table ^ "/" ^ id) h (Key.hash (Key.make ~table ~id)))
    [
      ("item", "42", 638177789);
      ("item", "0", 68900204);
      ("order", "7", 574807583);
      ("customer", "c-1001", 780719834);
      ("", "", 980550003);
    ]

(* --- hot records: a promoted applied set against a plain map ---------- *)

type applied_op =
  | Add of int * Txn.id * int  (* record, txid, delta *)
  | Replace of int * (Txn.id * int) list
  | Snapshot of int
  | Mem of int * Txn.id

(* Seventy txids: sequences repeat them, and a set crosses the promotion
   size both ways, by inserts and by replacements. *)
let txid_gen = QCheck.Gen.map (Printf.sprintf "t%02d") (QCheck.Gen.int_range 0 69)

let applied_op_gen =
  let open QCheck.Gen in
  let record = int_range 0 1 and delta = int_range 1 9 in
  frequency
    [
      (12, map3 (fun r txid d -> Add (r, txid, d)) record txid_gen delta);
      (1, map2 (fun r entries -> Replace (r, entries)) record
            (list_size (int_range 0 60) (pair txid_gen delta)));
      (2, map (fun r -> Snapshot r) record);
      (3, map2 (fun r txid -> Mem (r, txid)) record txid_gen);
    ]

let show_applied_op = function
  | Add (r, txid, d) -> Printf.sprintf "add %d %s %d" r txid d
  | Replace (r, entries) -> Printf.sprintf "replace %d (%d entries)" r (List.length entries)
  | Snapshot r -> Printf.sprintf "snapshot %d" r
  | Mem (r, txid) -> Printf.sprintf "mem %d %s" r txid

(* Two records of one acceptor node, stepped through its inputs: a
   committed Visibility adds an entry, a rebase replaces the set.  Each op
   also runs on a model: the record's applied set as a plain map, and the
   txids a rebase clobbered, which stay committed in the decided log.  The
   verdicts, membership, snapshot bindings, the anti-entropy digest and
   the decided log must agree throughout. *)
let prop_promoted_set_is_a_map =
  QCheck.Test.make ~name:"a promoted applied set answers as a plain map" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list show_applied_op)
       QCheck.Gen.(list_size (int_range 0 400) applied_op_gen))
    (fun ops ->
      let n = acceptor () in
      let keys = Array.init 2 (fun i -> Key.make ~table:"item" ~id:(string_of_int i)) in
      let records = Array.map (Acceptor.record n) keys in
      let models = Array.make 2 Txn.Map.empty and logged = Array.make 2 Txn.Map.empty in
      let known r txid = Txn.Map.mem txid models.(r) || Txn.Map.mem txid logged.(r) in
      let agrees r =
        let snap = Acceptor.applied n keys.(r) in
        Txn.Map.bindings snap = Txn.Map.bindings models.(r)
        && Messages.applied_digest snap = Messages.applied_digest models.(r)
        && List.sort compare (Acceptor.promise n records.(r)).Messages.decided
           = List.map (fun (txid, ()) -> (txid, true)) (Txn.Map.bindings logged.(r))
      in
      let mem_agrees r txid =
        Acceptor.outcome n records.(r) txid = if known r txid then Some true else None
      in
      let step = function
        | Add (r, txid, d) ->
          let expected = if known r txid then Acceptor.Ignored else Acceptor.Wrote in
          if expected = Acceptor.Wrote then models.(r) <- Txn.Map.add txid (up d) models.(r);
          commit ~key:keys.(r) n (txid, up d) = expected && mem_agrees r txid
        | Replace (r, entries) ->
          let m =
            List.fold_left
              (fun m (txid, d) -> if Txn.Map.mem txid m then m else Txn.Map.add txid (up d) m)
              Txn.Map.empty entries
          in
          let version = (Acceptor.rebase_of n keys.(r)).Messages.version + 1 in
          let rebased =
            Acceptor.rebase n keys.(r)
              { Messages.value = Value.empty; version; exists = true; included = m }
          in
          Txn.Map.iter
            (fun txid _ ->
              if not (Txn.Map.mem txid m) then logged.(r) <- Txn.Map.add txid () logged.(r))
            models.(r);
          logged.(r) <- Txn.Map.filter (fun txid () -> not (Txn.Map.mem txid m)) logged.(r);
          models.(r) <- m;
          rebased && agrees r
        | Snapshot r -> agrees r
        | Mem (r, txid) -> mem_agrees r txid
      in
      let all_txids = List.init 70 (Printf.sprintf "t%02d") in
      List.for_all step ops
      && List.for_all (fun r -> agrees r && List.for_all (mem_agrees r) all_txids) [ 0; 1 ])

let suite =
  [
    Alcotest.test_case "value basics" `Quick test_value_basics;
    Alcotest.test_case "value get_int on string raises" `Quick test_value_get_int_on_string;
    Alcotest.test_case "value equality" `Quick test_value_equal;
    Alcotest.test_case "key ordering" `Quick test_key_ordering;
    Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
    Alcotest.test_case "schema duplicate table" `Quick test_schema_duplicate;
    Alcotest.test_case "schema check_value" `Quick test_schema_check_value;
    Alcotest.test_case "txn duplicate key rejected" `Quick test_txn_duplicate_key_rejected;
    Alcotest.test_case "txn predicates" `Quick test_txn_predicates;
    Alcotest.test_case "store insert/read" `Quick test_store_insert_read;
    Alcotest.test_case "store validate" `Quick test_store_validate;
    Alcotest.test_case "store version jump" `Quick test_store_version_jump;
    Alcotest.test_case "store delete & reinsert" `Quick test_store_delete_and_reinsert;
    Alcotest.test_case "store delta apply" `Quick test_store_delta_apply;
    Alcotest.test_case "store fold/iter" `Quick test_store_fold_iter;
    Alcotest.test_case "applied set is idempotent" `Quick test_applied_set_idempotent;
    Alcotest.test_case "applied set is commutative" `Quick test_applied_set_commutative;
    Alcotest.test_case "applied set merge is union" `Quick test_applied_set_merge_union;
    Alcotest.test_case "applied digest is set-consistent" `Quick test_applied_digest_consistent;
    QCheck_alcotest.to_alcotest prop_delta_versions;
    QCheck_alcotest.to_alcotest prop_digest_matches_sorted_list;
    QCheck_alcotest.to_alcotest prop_sorted_filter_map;
    QCheck_alcotest.to_alcotest prop_tbl_any;
    QCheck_alcotest.to_alcotest prop_promoted_set_is_a_map;
    Alcotest.test_case "key hash pinned values" `Quick test_key_hash_pinned;
    QCheck_alcotest.to_alcotest prop_key_hash_is_pair_hash;
  ]
