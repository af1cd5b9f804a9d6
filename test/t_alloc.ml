(* Allocation ceilings on the protocol's per-message and per-scan paths.
   Gc.minor_words is an unboxed external in native code, so a delta over a
   call counts exactly the words the call allocated: these checks are
   deterministic, not timing-based. *)

open Mdcc_storage
module Messages = Mdcc_core.Messages
module Rstate = Mdcc_core.Rstate
module Runtime = Mdcc_core.Runtime
module Config = Mdcc_core.Config
module Storage_node = Mdcc_core.Storage_node
module Woption = Mdcc_core.Woption

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let key = Key.make ~table:"item" ~id:"42"

let test_mark_applied_log_n () =
  let rs = Rstate.create key in
  for i = 0 to 9_999 do
    Rstate.mark_applied rs (Printf.sprintf "t%05d" i) (Update.Delta [ ("stock", -1) ])
  done;
  let fresh = Array.init 100 (fun i -> Printf.sprintf "u%05d" i) in
  let up = Update.Delta [ ("stock", -1) ] in
  let w = words (fun () -> Array.iter (fun txid -> Rstate.mark_applied rs txid up) fresh) in
  (* A balanced-tree insert copies one path: about log2(10_100) = 14 nodes
     of 6 words.  Copying the set would cost tens of thousands. *)
  let per_call = w /. 100.0 in
  if per_call > 200.0 then Alcotest.failf "mark_applied allocated %.0f words per call" per_call;
  let again = words (fun () -> Rstate.mark_applied rs fresh.(0) up) in
  Alcotest.(check (float 0.0)) "re-marking allocates nothing" 0.0 again

let test_size_of_allocates_nothing () =
  let row = Value.of_list [ ("stock", Value.Int 9); ("name", Value.Str "widget") ] in
  let w =
    {
      Woption.txid = "txn17";
      key;
      update = Update.Physical { vread = 3; value = row };
      write_set = [ key; Key.make ~table:"order" ~id:"7" ];
      coordinator = 9;
    }
  in
  List.iter
    (fun (name, payload) ->
      let n =
        words (fun () ->
            for _ = 1 to 100 do
              ignore (Sys.opaque_identity (Messages.size_of payload))
            done)
      in
      Alcotest.(check (float 0.0)) name 0.0 n)
    [
      ("propose", Messages.Propose { woption = w; route = `Fast });
      ( "visibility",
        Messages.Visibility { txid = "txn17"; key; update = w.Woption.update; committed = true } );
    ]

(* A storage node on a runtime that only records timers: the test drives
   the maintenance timer by hand. *)
let idle_node ~records =
  let handler = ref (fun ~src:_ _ -> ()) and timers = Queue.create () and clock = ref 0.0 in
  let runtime =
    Runtime.make
      ~now:(fun () -> !clock)
      ~send:(fun ~src:_ ~dst:_ _ -> ())
      ~register:(fun _ h -> handler := h)
      ~set_timer:(fun ~after:_ f ->
        Queue.push f timers;
        ignore)
      ~spawn:(fun f -> f ())
      ~rng:(Mdcc_util.Rng.create 1) ~dc_of:(fun _ -> 0)
      ~trace:(fun ~tag:_ _ -> ())
      ~tracing:(fun () -> false)
      ()
  in
  let config = Config.make ~replication:3 () in
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let node =
    Storage_node.create ~runtime ~config ~node_id:0 ~schema
      ~replicas:(fun _ -> [ 0 ])
      ~master_of:(fun _ -> 0)
      ()
  in
  (* Every record gets one pending fast vote, still young at scan time. *)
  for i = 0 to records - 1 do
    let k = Key.make ~table:"item" ~id:(string_of_int i) in
    !handler ~src:9
      (Messages.Propose
         {
           woption =
             {
               Woption.txid = Printf.sprintf "p%d" i;
               key = k;
               update = Update.Insert Value.empty;
               write_set = [ k ];
               coordinator = 9;
             };
           route = `Fast;
         })
  done;
  clock := config.Config.txn_timeout /. 2.0;
  Storage_node.start_maintenance node;
  (node, fun () -> (Queue.pop timers) ())

let test_idle_scan_constant () =
  let node, fire = idle_node ~records:5_000 in
  Alcotest.(check int) "every record pending" 5_000 (Storage_node.pending_options node);
  fire ();
  let w = words fire in
  if w > 200.0 then Alcotest.failf "idle scan of 5000 records allocated %.0f words" w;
  Alcotest.(check int) "nothing recovered" 5_000 (Storage_node.pending_options node)

let suite =
  [
    Alcotest.test_case "mark_applied on 10k entries is O(log n)" `Quick test_mark_applied_log_n;
    Alcotest.test_case "size_of allocates nothing" `Quick test_size_of_allocates_nothing;
    Alcotest.test_case "idle maintenance scan is constant" `Quick test_idle_scan_constant;
  ]
