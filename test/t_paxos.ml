(* Tests for ballots and quorum arithmetic, including the fast-anchoring
   threshold of the Fast Paxos safe-value rule. *)

open Mdcc_paxos

let ballot = Alcotest.testable Ballot.pp Ballot.equal

let test_ballot_ordering () =
  let f0 = Ballot.initial_fast in
  let c1 = Ballot.classic ~number:1 ~proposer:3 in
  let f1 = Ballot.fast ~number:1 ~proposer:3 in
  Alcotest.(check bool) "fast0 < classic1" true Ballot.(f0 <% c1);
  Alcotest.(check bool) "fast1 < classic1 (classic outranks fast at equal number)" true
    Ballot.(f1 <% c1);
  Alcotest.(check bool) "classic1 not < fast1" false Ballot.(c1 <% f1);
  Alcotest.(check bool) "proposer breaks ties" true
    Ballot.(Ballot.classic ~number:1 ~proposer:1 <% Ballot.classic ~number:1 ~proposer:2)

let test_ballot_next_classic () =
  let f0 = Ballot.initial_fast in
  let n = Ballot.next_classic f0 ~proposer:2 in
  Alcotest.(check bool) "next classic beats fast 0" true Ballot.(f0 <% n);
  let c5 = Ballot.classic ~number:5 ~proposer:9 in
  let n2 = Ballot.next_classic c5 ~proposer:2 in
  Alcotest.(check bool) "next classic beats classic 5.9" true Ballot.(c5 <% n2);
  Alcotest.check ballot "bumps the number" (Ballot.classic ~number:6 ~proposer:2) n2

let test_quorum_sizes () =
  Alcotest.(check int) "classic(5)" 3 (Quorum.classic_size ~n:5);
  Alcotest.(check int) "fast(5)" 4 (Quorum.fast_size ~n:5);
  Alcotest.(check int) "classic(3)" 2 (Quorum.classic_size ~n:3);
  Alcotest.(check int) "fast(3)" 3 (Quorum.fast_size ~n:3);
  Alcotest.(check int) "classic(7)" 4 (Quorum.classic_size ~n:7);
  Alcotest.(check int) "fast(7)" 6 (Quorum.fast_size ~n:7)

(* The defining property: any two fast quorums and a classic quorum share a
   member, and any two quorums intersect. *)
let prop_quorum_intersection =
  QCheck.Test.make ~name:"fast quorum intersection property" ~count:100
    QCheck.(int_range 3 15)
    (fun n ->
      let c = Quorum.classic_size ~n and f = Quorum.fast_size ~n in
      (2 * f) + c - (2 * n) >= 1 && 2 * c - n >= 1 && f <= n)

let test_fast_impossible () =
  (* n=5, f=4 *)
  Alcotest.(check bool) "3acc/0rej possible" false (Quorum.fast_impossible ~n:5 ~acks:3 ~rejects:0);
  Alcotest.(check bool) "3acc/2rej collision" true (Quorum.fast_impossible ~n:5 ~acks:3 ~rejects:2);
  Alcotest.(check bool) "2acc/2rej collision certain (5th cannot reach 4)" true
    (Quorum.fast_impossible ~n:5 ~acks:2 ~rejects:2);
  Alcotest.(check bool) "4acc reached not impossible" false
    (Quorum.fast_impossible ~n:5 ~acks:4 ~rejects:1);
  Alcotest.(check bool) "0/0 open" false (Quorum.fast_impossible ~n:5 ~acks:0 ~rejects:0)

let test_anchor_threshold_paper_example () =
  (* Paper's example (§3.3.1): n = 5, f = 4 and a Phase1b quorum of 3, so
     a fast vote is possibly chosen with 4 - (5 - 3) = 2 supporters. *)
  let threshold = Quorum.anchor_threshold ~n:5 ~f:4 ~responded:3 in
  Alcotest.(check int) "threshold" 2 threshold;
  Alcotest.(check bool) "support 2 is anchored" true (2 >= threshold);
  Alcotest.(check bool) "support 1 is not" false (1 >= threshold)

(* Random replies over 3-7 replicas, repeats and non-members ([pos = -1])
   included, against a list model that keeps each member's first reply.
   Kind 0 is a reply that casts no vote, 1 an accept, 2 a reject.  After
   every reply, the tally's counts, its decision at every quorum size and
   its fast-collision test agree with the model, and the tally is unchanged
   exactly when the model ignored the reply. *)
let prop_tally_matches_model =
  let gen =
    QCheck.Gen.(
      int_range 3 7 >>= fun n ->
      pair (return n) (list_size (int_range 0 24) (pair (int_range (-1) (n - 1)) (int_range 0 2))))
  in
  QCheck.Test.make ~name:"tally matches a list model" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair int (list (pair int int))) gen)
    (fun (n, replies) ->
      let f = Quorum.fast_size ~n in
      let step (ok, tally, model) (pos, kind) =
        let tally' =
          if kind = 0 then Quorum.Tally.reply tally ~pos
          else Quorum.Tally.vote tally ~pos ~ok:(kind = 1)
        in
        let model' = if pos < 0 || List.mem_assoc pos model then model else (pos, kind) :: model in
        let count k = List.length (List.filter (fun (_, k') -> k' = k) model') in
        let acks = count 1 and rejects = count 2 in
        let decided quorum =
          if acks >= quorum then Some true else if rejects >= quorum then Some false else None
        in
        let agrees =
          Quorum.Tally.replies tally' = List.length model'
          && Quorum.Tally.acks tally' = acks
          && Quorum.Tally.rejects tally' = rejects
          && List.for_all
               (fun quorum -> Quorum.Tally.decided tally' ~quorum = decided quorum)
               (List.init (n + 2) Fun.id)
          && Quorum.Tally.fast_impossible tally' ~n = (n - rejects < f && n - acks < f)
          && ((tally' :> int) = (tally :> int)) = (model' == model)
        in
        (ok && agrees, tally', model')
      in
      let ok, _, _ = List.fold_left step (true, Quorum.Tally.empty, []) replies in
      ok)

let suite =
  [
    Alcotest.test_case "ballot ordering" `Quick test_ballot_ordering;
    Alcotest.test_case "ballot next_classic" `Quick test_ballot_next_classic;
    Alcotest.test_case "quorum sizes" `Quick test_quorum_sizes;
    Alcotest.test_case "fast_impossible" `Quick test_fast_impossible;
    Alcotest.test_case "anchor_threshold: paper example" `Quick
      test_anchor_threshold_paper_example;
    QCheck_alcotest.to_alcotest prop_quorum_intersection;
    QCheck_alcotest.to_alcotest prop_tally_matches_model;
  ]
