(* Unit tests of the leader: one record's master state and its steps,
   driven against acceptors alone, with no engine or runtime.  Five
   replicas, nodes 0-4, so a classic quorum is 3; the test delivers every
   Phase 1a, Phase 1b, Phase 2a and Phase 2b by hand, and plays the
   driver's timers by calling the timer steps. *)

open Mdcc_storage
module Acceptor = Mdcc_core.Acceptor
module Config = Mdcc_core.Config
module Leader = Mdcc_core.Leader
module Woption = Mdcc_core.Woption
module Ballot = Mdcc_paxos.Ballot

let key = Key.make ~table:"item" ~id:"0"

let replicas = [ 0; 1; 2; 3; 4 ]

let now = { Mdcc_sim.Engine.time = 0.0 }

let delta = Update.Delta [ ("stock", -1) ]

let physical = Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int 3) ] }

let opt ?(update = delta) txid = { Woption.txid; key; update; write_set = [ key ]; coordinator = 9 }

(* Five acceptors, each over its own store whose row holds stock 10 at
   version 1. *)
let acceptors config =
  Array.init 5 (fun _ ->
      let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
      let store = Store.create schema in
      let row = Store.ensure store key in
      row.Store.value <- Value.of_list [ ("stock", Value.Int 10) ];
      row.Store.version <- 1;
      row.Store.exists <- true;
      (Acceptor.create_node ~config store, store))

(* Node [self]'s leader of [key], over the acceptors [nodes], with the
   steps that read node [self]'s own acceptor bound to it. *)
type leader = {
  l : Leader.t;
  propose : ?notify:int list -> Woption.t -> Leader.verdict;
  ack : ?ok:bool -> ?ballot:Ballot.t -> int -> Woption.t -> Leader.verdict;
  phase1a : int -> Leader.verdict;
      (* the Phase 1a at the leader's ballot to an acceptor, and its Phase 1b back *)
  dequeue : unit -> Leader.verdict;
}

let leader ?(mode = Config.Full) ?(master = 0) ?nodes self =
  let config = Config.make ~mode ~replication:5 () in
  let nodes = match nodes with Some n -> n | None -> acceptors config in
  let node, store = nodes.(self) in
  let rs = Acceptor.record node key in
  let l = Leader.create config ~self ~master_of:(fun _ -> master) key in
  let ack ?(ok = true) ?ballot src (w : Woption.t) =
    let ballot = Option.value ballot ~default:(Leader.ballot l) in
    Leader.ack l ~self ~quorum:3 ~replicas ~src w.Woption.txid ballot ~ok
  in
  let phase1a dst =
    let ballot = Leader.ballot l and n, _ = nodes.(dst) in
    let rs' = Acceptor.record n key in
    let ok = Acceptor.phase1a n rs' ballot in
    Leader.promise l node rs ~self ~quorum:3 ~replicas ~src:dst ballot ~ok
      ~promised:(Acceptor.promised rs') (Acceptor.promise n rs')
  in
  { l;
    propose = (fun ?(notify = []) w -> Leader.propose l node rs store ~self w ~notify);
    ack; phase1a; dequeue = (fun () -> Leader.dequeue l node rs) }

(* Acceptor [i] of [nodes] promises [ballot], as another leader's
   Phase 1a would have it. *)
let promise_elsewhere nodes i ballot =
  let n, _ = nodes.(i) in
  ignore (Acceptor.phase1a n (Acceptor.record n key) ballot : bool)

let pp_verdict ppf = function
  | Leader.Pending -> Format.pp_print_string ppf "pending"
  | Leader.Outcome c -> Format.fprintf ppf "outcome %b" c
  | Leader.Round None -> Format.pp_print_string ppf "round accepted"
  | Leader.Round (Some _) -> Format.pp_print_string ppf "round rejected"
  | Leader.Learned -> Format.pp_print_string ppf "learned"
  | Leader.Phase1 -> Format.pp_print_string ppf "phase 1"
  | Leader.Redrive -> Format.pp_print_string ppf "redrive"
  | Leader.Phase1a -> Format.pp_print_string ppf "phase 1a"
  | Leader.Nacked -> Format.pp_print_string ppf "nacked"
  | Leader.Resolved v ->
    Format.fprintf ppf "resolved, %d rounds" (List.length v.Acceptor.outcomes)
  | Leader.Handover { leader; released } ->
    Format.fprintf ppf "handover to %d of %s" leader
      (String.concat " " (List.map (fun (w : Woption.t) -> w.Woption.txid) released))

let name v = Format.asprintf "%a" pp_verdict v

let verdict = Alcotest.testable pp_verdict (fun a b -> String.equal (name a) (name b))

let verdicts = Alcotest.list verdict

let ballot = Alcotest.testable Ballot.pp Ballot.equal

let txids = Alcotest.(list string)

let extras s = List.map (fun (w : Woption.t) -> w.Woption.txid) (Leader.extras (Leader.attempt s.l))

(* A hand-over to [leader] of the options [txids], as {!verdict} compares
   verdicts: by name. *)
let handover leader txids =
  Leader.Handover { leader; released = List.map (fun txid -> opt txid) txids }

(* Each thunk's result, evaluated in list order. *)
let in_order steps = List.map (fun step -> step ()) steps

let test_stable_master () =
  let s = leader ~mode:Config.Multi 0 in
  Alcotest.(check bool) "the static master leads" true (Leader.leads s.l);
  Alcotest.check ballot "at ballot 1" (Ballot.classic ~number:1 ~proposer:0) (Leader.ballot s.l);
  Alcotest.(check bool) "with no Phase 1" false (Leader.running s.l);
  Alcotest.(check bool) "another node leads nothing" false
    (Leader.leads (leader ~mode:Config.Multi ~master:1 0).l);
  Alcotest.(check bool) "nor does the master in Full mode" false (Leader.leads (leader 0).l);
  let a = opt "a" in
  Alcotest.check verdict "a propose on a led record starts a round" (Leader.Round None)
    (s.propose a);
  Alcotest.(check string) "for the option" "a" (Leader.option s.l).Woption.txid;
  Alcotest.check ballot "at the led ballot" (Ballot.classic ~number:1 ~proposer:0)
    (Leader.ballot s.l)

let test_queue () =
  let s = leader ~mode:Config.Multi 0 in
  let a = opt "a" and b = opt "b" and c = opt ~update:physical "c" and d = opt "d" in
  Alcotest.check verdicts
    "a commutative option pipelines, a physical one queues, and so does anything behind it"
    [ Leader.Round None; Leader.Round None; Leader.Pending; Leader.Pending ]
    (in_order [ (fun () -> s.propose a); (fun () -> s.propose b); (fun () -> s.propose c);
                (fun () -> s.propose d) ]);
  Alcotest.check verdicts "three acks learn a round once"
    [ Leader.Pending; Leader.Pending; Leader.Learned; Leader.Pending ]
    (in_order (List.map (fun src () -> s.ack src a) [ 0; 1; 2; 3 ]));
  Alcotest.(check string) "the learned option" "a" (Leader.option s.l).Woption.txid;
  Alcotest.check verdict "the physical option waits for every running round" Leader.Pending
    (s.dequeue ());
  Alcotest.check verdicts "b learned" [ Leader.Pending; Leader.Pending; Leader.Learned ]
    (in_order (List.map (fun src () -> s.ack src b) [ 0; 1; 2 ]));
  Alcotest.check verdict "the queue's head runs" (Leader.Round None) (s.dequeue ());
  Alcotest.(check string) "its option" "c" (Leader.option s.l).Woption.txid;
  Alcotest.check verdict "and the delta behind it waits" Leader.Pending (s.dequeue ())

let test_propose_phase1_and_outcome () =
  let s = leader 0 in
  Alcotest.check verdict "leading nothing, a propose starts Phase 1" Leader.Phase1
    (s.propose ~notify:[ 5 ] (opt "a"));
  Alcotest.check ballot "one above the highest" (Ballot.classic ~number:2 ~proposer:0)
    (Leader.ballot s.l);
  Alcotest.check verdict "a propose during Phase 1 joins it" Leader.Pending
    (s.propose ~notify:[ 6 ] (opt "b"));
  Alcotest.check txids "its options" [ "b"; "a" ] (extras s);
  Alcotest.(check (list int)) "and who asked" [ 6; 5 ] (Leader.waiting (Leader.attempt s.l));
  (* A stable master whose acceptor knows c committed and v aborted. *)
  let nodes = acceptors (Config.make ~mode:Config.Multi ~replication:5 ()) in
  let m = leader ~mode:Config.Multi ~nodes 0 in
  let n0, _ = nodes.(0) in
  ignore (Acceptor.visibility n0 "c" key delta true : Acceptor.visibility);
  ignore (Acceptor.visibility n0 "v" key delta false : Acceptor.visibility);
  Alcotest.check verdicts "a decided transaction answers its outcome, starting no round"
    [ Leader.Outcome true; Leader.Outcome false; Leader.Round None ]
    (in_order
       [ (fun () -> m.propose (opt "c")); (fun () -> m.propose (opt "v"));
         (fun () -> m.propose (opt "p")) ])

let test_acks () =
  let nodes = acceptors (Config.make ~mode:Config.Multi ~replication:5 ()) in
  let s = leader ~mode:Config.Multi ~nodes 0 in
  let a = opt "a" in
  ignore (s.propose a : Leader.verdict);
  (* Acceptor 1 promised another leader's higher ballot: it refuses the
     round and answers with that promise, which is another ballot. *)
  let higher = Ballot.classic ~number:5 ~proposer:3 in
  promise_elsewhere nodes 1 higher;
  let n1, _ = nodes.(1) in
  let refused =
    Acceptor.phase2a n1 (Acceptor.record n1 key) ~now (Leader.ballot s.l) a Woption.Accepted
      ~classic_until:max_int ~rebase:None
  in
  Alcotest.(check bool) "acceptor 1 refused" true (refused = Acceptor.Refused);
  Alcotest.check verdict "an ack at another ballot is ignored" Leader.Pending
    (s.ack ~ballot:higher 2 a);
  Alcotest.check verdict "so is a refusal at this node's own ballot" Leader.Pending
    (s.ack ~ok:false ~ballot:(Ballot.classic ~number:6 ~proposer:0) 2 a);
  Alcotest.(check bool) "still leading" true (Leader.leads s.l);
  Alcotest.check verdict "a refusal at another node's higher promise hands the round to it"
    (handover 3 [ "a" ]) (s.ack ~ok:false ~ballot:higher 1 a);
  Alcotest.(check bool) "leading nothing" false (Leader.leads s.l);
  Alcotest.check verdict "a late ack of it is ignored" Leader.Pending (s.ack 3 a);
  Alcotest.check verdict "asked again, it runs Phase 1" Leader.Phase1 (s.propose a);
  Alcotest.check ballot "above the new leader's ballot" (Ballot.classic ~number:6 ~proposer:0)
    (Leader.ballot s.l)

let test_step_down () =
  let s = leader ~mode:Config.Multi 0 in
  let a = opt "a" and b = opt "b" and c = opt ~update:physical "c" and d = opt "d" in
  ignore
    (in_order
       [ (fun () -> s.propose ~notify:[ 5 ] a); (fun () -> s.propose ~notify:[ 6 ] b);
         (fun () -> s.propose ~notify:[ 7; 5 ] c); (fun () -> s.propose d) ]);
  Alcotest.check verdict "a refusal at the round's ballot steps down into Phase 1" Leader.Phase1
    (s.ack ~ok:false 2 b);
  Alcotest.(check bool) "leading nothing" false (Leader.leads s.l);
  Alcotest.check ballot "one ballot higher" (Ballot.classic ~number:2 ~proposer:0)
    (Leader.ballot s.l);
  Alcotest.check txids "the refused option, the other rounds, then the queue"
    [ "b"; "a"; "c"; "d" ] (extras s);
  Alcotest.(check (list int)) "every asker, new ones in front" [ 7; 5; 6 ]
    (Leader.waiting (Leader.attempt s.l));
  Alcotest.check verdict "a late ack of a folded round is ignored" Leader.Pending (s.ack 1 a)

let test_handover_release () =
  let s = leader ~mode:Config.Multi 0 in
  let a = opt "a" and b = opt "b" and c = opt ~update:physical "c" and d = opt "d" in
  ignore
    (in_order
       [ (fun () -> s.propose ~notify:[ 5 ] a); (fun () -> s.propose ~notify:[ 6; 9 ] b);
         (fun () -> s.propose ~notify:[ 7; 0; 5 ] c); (fun () -> s.propose d) ]);
  Alcotest.check verdict "a refusal for node 3's ballot hands over every round, newest first, \
                          then the queue"
    (handover 3 [ "b"; "a"; "c"; "d" ])
    (s.ack ~ok:false ~ballot:(Ballot.classic ~number:2 ~proposer:3) 2 b);
  Alcotest.(check bool) "leading nothing" false (Leader.leads s.l);
  Alcotest.(check (list (list int)))
    "the askers other than the coordinator (9) and this node wait here"
    [ [ 6 ]; [ 5 ]; [ 7; 5 ]; [] ]
    (List.map (Leader.forward s.l) [ "b"; "a"; "c"; "d" ]);
  Alcotest.(check (list int)) "once" [] (Leader.forward s.l "a")

let test_phase1 () =
  let nodes = acceptors (Config.make ~replication:5 ()) in
  let s = leader ~nodes 0 in
  ignore (s.propose (opt "a") : Leader.verdict);
  let a = Leader.attempt s.l in
  promise_elsewhere nodes 1 (Ballot.classic ~number:7 ~proposer:3);
  Alcotest.check verdict "a nack" Leader.Nacked (s.phase1a 1);
  Alcotest.check ballot "moves above the promise" (Ballot.classic ~number:8 ~proposer:0)
    (Leader.ballot s.l);
  promise_elsewhere nodes 2 (Ballot.classic ~number:8 ~proposer:3);
  Alcotest.check verdict "another" Leader.Nacked (s.phase1a 2);
  Alcotest.check ballot "max highest promised + 1" (Ballot.classic ~number:9 ~proposer:0)
    (Leader.ballot s.l);
  Alcotest.check verdict "a re-drive while it runs moves it on" Leader.Redrive
    (Leader.redrive s.l ~self:0 a);
  Alcotest.(check (list string))
    "a classic quorum of promises resolves it, with a round for the option"
    [ "pending"; "pending"; "resolved, 1 rounds" ]
    (List.map name (in_order (List.map (fun dst () -> s.phase1a dst) [ 0; 3; 4 ])));
  Alcotest.(check bool) "leading" true (Leader.leads s.l);
  Alcotest.check ballot "at the resolved ballot" (Ballot.classic ~number:10 ~proposer:0)
    (Leader.ballot s.l);
  Alcotest.check verdict "a re-drive after the resolution does nothing" Leader.Pending
    (Leader.redrive s.l ~self:0 a);
  Alcotest.check verdict "nor does a backoff" Leader.Pending
    (Leader.backoff s.l a (Leader.ballot s.l));
  Alcotest.check ballot "the ballot stays" (Ballot.classic ~number:10 ~proposer:0)
    (Leader.ballot s.l)

(* Item 2's duel.  Two leaders, nodes 1 and 2, start Phase 1 on one
   record.  In each turn one acceptor hears the newer leader's Phase 1a
   and promises it, then the older leader's, which it nacks; the nacked
   leader backs off above that promise and sends again.  Each nack comes
   before a quorum of promises, so the ballots climb by one a turn and
   neither leader ever resolves. *)
let test_duel () =
  let nodes = acceptors (Config.make ~replication:5 ()) in
  let l1 = leader ~nodes 1 and l2 = leader ~nodes 2 in
  ignore (l1.propose (opt "a") : Leader.verdict);
  ignore (l2.propose (opt "b") : Leader.verdict);
  let turns = 10 in
  let rec duel i newer older acc =
    if i = turns then List.rev acc
    else begin
      let dst = i mod 5 in
      ignore (newer.phase1a dst : Leader.verdict);
      let nacked = older.phase1a dst in
      let resent = Leader.backoff older.l (Leader.attempt older.l) (Leader.ballot older.l) in
      if nacked <> Leader.Nacked || resent <> Leader.Phase1a then
        Alcotest.failf "turn %d: the older leader was not nacked and re-sent" i;
      duel (i + 1) older newer (Format.asprintf "%a" Ballot.pp (Leader.ballot older.l) :: acc)
    end
  in
  Alcotest.check txids "known defect, item 2: the ballots alternate"
    [ "3.c.1"; "4.c.2"; "5.c.1"; "6.c.2"; "7.c.1"; "8.c.2"; "9.c.1"; "10.c.2"; "11.c.1"; "12.c.2" ]
    (duel 0 l2 l1 []);
  Alcotest.(check (list bool)) "and neither resolves" [ true; true; false; false ]
    [ Leader.running l1.l; Leader.running l2.l; Leader.leads l1.l; Leader.leads l2.l ]

(* Item 2's stale backoff.  A nack moves the Phase 1 to ballot 6 and arms
   the backoff; the re-drive fires first, moving it to 7 and sending its
   Phase 1a's.  The backoff then finds the attempt moved since its nack
   and sends nothing: the re-drive's round is the only one at 7. *)
let test_stale_backoff () =
  let nodes = acceptors (Config.make ~replication:5 ()) in
  let s = leader ~nodes 0 in
  ignore (s.propose (opt "a") : Leader.verdict);
  let a = Leader.attempt s.l in
  promise_elsewhere nodes 1 (Ballot.classic ~number:5 ~proposer:3);
  Alcotest.check verdict "nacked" Leader.Nacked (s.phase1a 1);
  let nacked = Leader.ballot s.l in
  Alcotest.check ballot "backing off at 6" (Ballot.classic ~number:6 ~proposer:0) nacked;
  Alcotest.check verdict "the re-drive fires first" Leader.Redrive (Leader.redrive s.l ~self:0 a);
  let redriven = Leader.ballot s.l in
  Alcotest.check verdict "the backoff sends nothing" Leader.Pending (Leader.backoff s.l a nacked);
  Alcotest.check ballot "the re-drive's ballot stays" redriven (Leader.ballot s.l)

(* The path of [chaos_cli replay --seed 1 --scenario clean]: master 3
   leads the record after its Phase 1, with a round running and a
   physical option queued behind it, when node 0 wins a Phase 1 at a
   higher ballot.  The first acceptor that refuses master 3's round hands
   the round and the queue to node 0, which, asked for them, leads their
   rounds. *)
let test_refused_round_goes_to_the_leader () =
  let nodes = acceptors (Config.make ~replication:5 ()) in
  let m = leader ~nodes 3 and p = leader ~nodes 0 in
  let a = opt "a" and c = opt ~update:physical "c" in
  ignore (m.propose ~notify:[ 7 ] a : Leader.verdict);
  Alcotest.(check (list string)) "master 3 resolves a Phase 1 over 3, 4 and 0"
    [ "pending"; "pending"; "resolved, 1 rounds" ]
    (List.map name (in_order (List.map (fun dst () -> m.phase1a dst) [ 3; 4; 0 ])));
  Alcotest.check verdict "a physical option queues behind the round" Leader.Pending
    (m.propose c);
  ignore (p.propose (opt "x") : Leader.verdict);
  Alcotest.check verdict "node 0's Phase 1 at 2 is nacked by acceptor 0" Leader.Nacked
    (p.phase1a 0);
  Alcotest.check verdict "its backoff sends again at 3" Leader.Phase1a
    (Leader.backoff p.l (Leader.attempt p.l) (Leader.ballot p.l));
  Alcotest.(check (list string)) "and a quorum promises it"
    [ "pending"; "pending"; "resolved, 1 rounds" ]
    (List.map name (in_order (List.map (fun dst () -> p.phase1a dst) [ 0; 1; 2 ])));
  let n1, _ = nodes.(1) in
  let rs1 = Acceptor.record n1 key in
  Alcotest.(check bool) "acceptor 1 refuses master 3's round" true
    (Acceptor.phase2a n1 rs1 ~now (Leader.ballot m.l) a Woption.Accepted ~classic_until:max_int
       ~rebase:None
    = Acceptor.Refused);
  Alcotest.check verdict "its refusal hands the round and the queue to node 0"
    (handover 0 [ "a"; "c" ])
    (m.ack ~ok:false ~ballot:(Acceptor.promised rs1) 1 a);
  Alcotest.(check (list bool)) "node 0 leads, master 3 does not" [ true; false ]
    [ Leader.leads p.l; Leader.leads m.l ];
  Alcotest.check verdicts "node 0, asked for them, runs a's round and queues c"
    [ Leader.Round None; Leader.Pending ]
    (in_order [ (fun () -> p.propose ~notify:[ 3 ] a); (fun () -> p.propose ~notify:[ 3 ] c) ]);
  Alcotest.(check (list int)) "master 3 tells a's recoverer when node 0 answers" [ 7 ]
    (Leader.forward m.l "a")

let suite =
  [
    Alcotest.test_case "a stable master leads at ballot 1 and starts a round" `Quick
      test_stable_master;
    Alcotest.test_case "physical options queue, commutative ones pipeline" `Quick test_queue;
    Alcotest.test_case "a propose starts or joins Phase 1, or answers an outcome" `Quick
      test_propose_phase1_and_outcome;
    Alcotest.test_case "an acceptor's refusal at its own promise hands the round over" `Quick
      test_acks;
    Alcotest.test_case "a refused ack folds rounds, then the queue" `Quick test_step_down;
    Alcotest.test_case "Phase 1 nacks, re-drives and resolves" `Quick test_phase1;
    Alcotest.test_case "a hand-over lets go of the rounds, then the queue" `Quick
      test_handover_release;
    Alcotest.test_case "known defect, item 2: two nacked leaders duel" `Quick test_duel;
    Alcotest.test_case "a backoff after a re-drive sends nothing (item 2)" `Quick
      test_stale_backoff;
    Alcotest.test_case "a refused round and its queue go to the higher ballot's leader" `Quick
      test_refused_round_goes_to_the_leader;
  ]
