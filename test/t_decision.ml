(* Unit tests of a transaction's decision: the learned-all rule and the
   escalation policy of the coordinator and the dangling-transaction
   recoverer, stepped with no engine or runtime.  Five replicas, so a
   classic quorum is 3 replies and a fast quorum 4 equal votes. *)

open Mdcc_storage
module Txn_decision = Mdcc_core.Txn_decision
module Woption = Mdcc_core.Woption
module Messages = Mdcc_core.Messages

let config = Mdcc_core.Config.make ~replication:5 ()

let replicas (_ : Key.t) = [ 0; 1; 2; 3; 4 ]

let item i = Key.make ~table:"item" ~id:(string_of_int i)

let delta = Update.Delta [ ("stock", -1) ]

let physical = Update.Physical { vread = 1; value = Value.empty }

(* A coordinator's decision over items [ids], each updated by [update]. *)
let coordinated ?(update = delta) ids =
  Txn_decision.of_txn ~replicas ~coordinator:9
    (Txn.make ~id:"t" ~updates:(List.map (fun i -> (item i, update)) ids))

let pp_verdict ppf = function
  | Txn_decision.Pending -> Format.pp_print_string ppf "pending"
  | Txn_decision.Escalate -> Format.pp_print_string ppf "escalate"
  | Txn_decision.Collided -> Format.pp_print_string ppf "collided"
  | Txn_decision.Decided o -> Format.fprintf ppf "decided %a" Txn.pp_outcome o

let verdict = Alcotest.testable pp_verdict ( = )

let committed = Txn_decision.Decided Txn.Committed

let conflict = Txn_decision.Decided (Txn.Aborted Txn.Conflict)

let vote d i acceptor ok =
  Txn_decision.fast_vote config d i ~acceptor (Woption.of_ok ok)

(* Each thunk's result, evaluated in list order (a list literal is
   evaluated right to left). *)
let in_order steps = List.map (fun step -> step ()) steps

(* The verdicts of [acceptors]' votes on slot [i], in order. *)
let votes d i ok acceptors = List.map (fun a -> vote d i a ok) acceptors

let verdicts = Alcotest.list verdict

let test_slots () =
  let d = coordinated [ 3; 1; 2 ] in
  Alcotest.(check (list string)) "ascending key order" [ "item/1"; "item/2"; "item/3" ]
    (List.init (Txn_decision.length d) (fun i ->
         Key.to_string (Txn_decision.option d i).Woption.key));
  Alcotest.(check int) "a key's slot" 2 (Txn_decision.find d (item 3));
  Alcotest.(check int) "a key outside the write-set" (-1) (Txn_decision.find d (item 4))

let test_fast_quorum () =
  let d = coordinated [ 0 ] in
  Alcotest.check verdicts "three accepts, then the fourth decides"
    [ Txn_decision.Pending; Pending; Pending; committed ]
    (votes d 0 true [ 0; 1; 2; 3 ]);
  Alcotest.check verdict "a vote on a learned key" Txn_decision.Pending (vote d 0 4 false);
  let d = coordinated ~update:physical [ 0 ] in
  Alcotest.check verdicts "four rejects abort a physical update as a conflict"
    [ Txn_decision.Pending; Pending; Pending; conflict ]
    (votes d 0 false [ 0; 1; 2; 3 ]);
  let d = coordinated [ 0 ] in
  Alcotest.check verdicts "four rejects of a delta: a constraint violation"
    [ Txn_decision.Pending; Pending; Pending;
      Txn_decision.Decided (Txn.Aborted Txn.Constraint_violation) ]
    (votes d 0 false [ 0; 1; 2; 3 ])

let test_repeat_counts_once () =
  let d = coordinated [ 0 ] in
  Alcotest.check verdicts "an acceptor's repeated vote counts once"
    [ Txn_decision.Pending; Pending; Pending; Pending; Pending; committed ]
    (votes d 0 true [ 0; 0; 1; 1; 2; 3 ]);
  Alcotest.check verdict "a non-member's vote counts not at all" Txn_decision.Pending
    (vote (coordinated [ 0 ]) 0 7 true);
  let d =
    Txn_decision.of_option ~replicas ~self:0 (Txn_decision.option (coordinated [ 0 ]) 0)
  in
  let unknown a = Txn_decision.status config d 0 ~acceptor:a Messages.Status_unknown in
  Alcotest.check verdicts "a repeated status reply counts once"
    [ Txn_decision.Pending; Pending; Pending; Escalate ]
    (List.map unknown [ 1; 1; 2; 3 ])

let test_collision () =
  let d = coordinated [ 0; 1 ] in
  Alcotest.check verdicts "the vote that leaves no fast quorum collides, once"
    [ Txn_decision.Pending; Pending; Pending; Collided; Pending ]
    (in_order
       [ (fun () -> vote d 0 0 true); (fun () -> vote d 0 1 true); (fun () -> vote d 0 2 false);
         (fun () -> vote d 0 3 false); (fun () -> vote d 0 4 true) ]);
  Alcotest.(check int) "the collision is the first escalation: to the master" 4
    (Txn_decision.target d 0 ~master:4 ~rotate:true);
  Alcotest.(check bool) "escalated: not the fast path" false (Txn_decision.fast_path d)

let test_timeout_rotation () =
  let d = coordinated [ 0; 1 ] in
  ignore (votes d 1 true [ 0; 1; 2; 3 ]);
  Alcotest.check verdict "a learned key is not escalated" Txn_decision.Pending
    (Txn_decision.timeout d 1);
  let targets =
    List.init 7 (fun _ ->
        Alcotest.check verdict "an open key is escalated" Txn_decision.Escalate
          (Txn_decision.timeout d 0);
        (Txn_decision.target d 0 ~master:2 ~rotate:true,
         Txn_decision.target d 0 ~master:2 ~rotate:false))
  in
  Alcotest.(check (list int)) "a suspected master: first, then the others in order, around"
    [ 2; 0; 1; 3; 4; 2; 0 ] (List.map fst targets);
  Alcotest.(check (list int)) "a master heard from gets every escalation"
    [ 2; 2; 2; 2; 2; 2; 2 ] (List.map snd targets);
  Alcotest.(check bool) "escalated: not the fast path" false (Txn_decision.fast_path d)

let test_learn () =
  let d = coordinated [ 0; 1 ] in
  Alcotest.check verdict "one key learned: still open" Txn_decision.Pending
    (Txn_decision.learn d 0 Woption.Accepted);
  Alcotest.check verdict "the first decision stands" Txn_decision.Pending
    (Txn_decision.learn d 0 Woption.Rejected);
  Alcotest.check verdict "all accepted: commit" committed
    (Txn_decision.learn d 1 Woption.Accepted);
  let d = coordinated ~update:physical [ 0; 1 ] in
  ignore (Txn_decision.learn d 0 Woption.Accepted);
  Alcotest.check verdict "one rejected: abort" conflict (Txn_decision.learn d 1 Woption.Rejected);
  Alcotest.(check bool) "learned without escalating: the fast path" true
    (Txn_decision.fast_path d)

let test_outcome () =
  let d = coordinated [ 0; 1 ] in
  Alcotest.check verdict "a commit learns the key accepted" Txn_decision.Pending
    (Txn_decision.outcome d 0 true);
  Alcotest.(check (option (Alcotest.testable Woption.pp_decision Woption.decision_equal)))
    "learned" (Some Woption.Accepted) (Txn_decision.learned d 0);
  Alcotest.check verdict "an abort before every key is learned aborts at once" conflict
    (Txn_decision.outcome d 1 false);
  let d = coordinated [ 0 ] in
  Alcotest.check verdict "a commit of the last open key commits" committed
    (Txn_decision.outcome d 0 true)

let test_redirect () =
  let d = coordinated [ 0; 1 ] in
  Alcotest.(check (list bool)) "routed to the master once" [ true; false ]
    (in_order [ (fun () -> Txn_decision.redirect d 0); (fun () -> Txn_decision.redirect d 0) ]);
  ignore (Txn_decision.learn d 1 Woption.Accepted);
  Alcotest.(check bool) "a learned key is not redirected" false (Txn_decision.redirect d 1);
  Alcotest.(check (list bool)) "which slots went classic" [ true; false ]
    [ Txn_decision.redirected d 0; Txn_decision.redirected d 1 ];
  Alcotest.(check bool) "redirected: not the fast path" false (Txn_decision.fast_path d)

(* A recovery from the option of item 1 in the write-set [item 0; item 1]. *)
let recovery () =
  let w =
    { Woption.txid = "t"; key = item 1; update = delta; write_set = [ item 0; item 1 ];
      coordinator = 9 }
  in
  (w, Txn_decision.of_option ~replicas ~self:5 w)

let pending (w : Woption.t) ok =
  Messages.Status_pending
    { Messages.woption = w; decision = Woption.of_ok ok; ballot = Mdcc_paxos.Ballot.initial_fast }

let test_status () =
  let w, d = recovery () in
  let placeholder = Txn_decision.option d 0 in
  Alcotest.(check (list string)) "write-set order; the unseen key holds the placeholder"
    [ "item/0 by 5"; "item/1 by 9" ]
    (List.init 2 (fun i ->
         let o = Txn_decision.option d i in
         Printf.sprintf "%s by %d" (Key.to_string o.Woption.key) o.Woption.coordinator));
  Alcotest.(check bool) "an impossible read version" true
    (placeholder.Woption.update = Update.Physical { vread = -1; value = Value.empty });
  let status i a s = Txn_decision.status config d i ~acceptor:a s in
  let w0 = { w with Woption.key = item 0 } in
  Alcotest.check verdicts "item 1: escalated at three replies, learned at four accepts"
    [ Txn_decision.Pending; Pending; Escalate; Pending ]
    (List.map (fun a -> status 1 a (pending w true)) [ 0; 1; 2; 3 ]);
  Alcotest.(check bool) "item 1 learned" true (Txn_decision.learned d 1 = Some Woption.Accepted);
  Alcotest.check verdicts "item 0: escalated once"
    [ Txn_decision.Pending; Pending; Escalate; Pending ]
    (in_order
       [ (fun () -> status 0 0 Messages.Status_unknown);
         (fun () -> status 0 1 (pending w0 true));
         (fun () -> status 0 2 (pending { w0 with Woption.coordinator = 8 } false));
         (fun () -> status 0 3 Messages.Status_unknown) ]);
  Alcotest.(check int) "the first reported option is kept" 9
    (Txn_decision.option d 0).Woption.coordinator;
  Alcotest.(check int) "escalated to the master" 3 (Txn_decision.target d 0 ~master:3 ~rotate:true);
  Alcotest.check verdict "the master's decision on the last key commits" committed
    (Txn_decision.learn d 0 Woption.Accepted);
  let _, d = recovery () in
  Alcotest.check verdict "a decided reply settles it" conflict
    (Txn_decision.status config d 0 ~acceptor:2 (Messages.Status_decided false));
  let _, d = recovery () in
  Alcotest.check verdict "a committed reply settles it" committed
    (Txn_decision.status config d 1 ~acceptor:2 (Messages.Status_decided true))

let test_fill () =
  let w, d = recovery () in
  let w0 = { w with Woption.key = item 0; coordinator = 7 } in
  Txn_decision.fill d 0 w0;
  Txn_decision.fill d 0 { w0 with Woption.coordinator = 6 };
  Txn_decision.fill d 1 { w with Woption.coordinator = 6 };
  Alcotest.(check (list int)) "fills only the placeholder, once" [ 7; 9 ]
    (List.init 2 (fun i -> (Txn_decision.option d i).Woption.coordinator))

let suite =
  [
    Alcotest.test_case "slots and lookup" `Quick test_slots;
    Alcotest.test_case "a fast quorum learns" `Quick test_fast_quorum;
    Alcotest.test_case "a repeated reply counts once" `Quick test_repeat_counts_once;
    Alcotest.test_case "a collision escalates once" `Quick test_collision;
    Alcotest.test_case "timeouts rotate master first" `Quick test_timeout_rotation;
    Alcotest.test_case "learned-all: commit iff all accept" `Quick test_learn;
    Alcotest.test_case "an outcome report" `Quick test_outcome;
    Alcotest.test_case "a redirect routes once" `Quick test_redirect;
    Alcotest.test_case "status replies" `Quick test_status;
    Alcotest.test_case "a key's own option fills the placeholder" `Quick test_fill;
  ]
