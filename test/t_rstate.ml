(* Unit and property tests of the acceptor: the per-record decision logic
   (SetCompatible, the one-outstanding-option rule, quorum demarcation,
   §3.4.2) and its transitions, stepped with no engine or runtime. *)

open Mdcc_storage
module Acceptor = Mdcc_core.Acceptor
module Woption = Mdcc_core.Woption
module Ballot = Mdcc_paxos.Ballot
module Messages = Mdcc_core.Messages

let key = Key.make ~table:"item" ~id:"k"

let bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ]

let config = Mdcc_core.Config.make ~replication:5 ()

let now = { Mdcc_sim.Engine.time = 0.0 }

let woption ?(txid = "t") update =
  { Woption.txid; key; update; write_set = [ key ]; coordinator = 99 }

(* An acceptor with no runtime, over a store whose row [key] holds
   [stock] at [version] (version 1 and present by default), under the
   table's [bounds]. *)
let acceptor ?(config = config) ?(bounds = []) ?(exists = true) ?(version = 1) stock =
  let store = Store.create (Schema.create [ { Schema.name = "item"; bounds; master_dc = 0 } ]) in
  let row = Store.ensure store key in
  row.Store.value <- Value.of_list [ ("stock", Value.Int stock) ];
  row.Store.version <- version;
  row.Store.exists <- exists;
  (Acceptor.create_node ~config store, store)

let ballot = Ballot.classic ~number:1 ~proposer:0

(* An outstanding option and this replica's vote on it. *)
let pend ?(txid = "t") ?(decision = Woption.Accepted) update = (woption ~txid update, decision)

(* The record [key] of an acceptor as [acceptor] builds it, with a
   pending chain of the list's votes, in the list's order: each is the
   decision a classic Phase 2a carried. *)
let with_pending ?bounds ?exists ?version stock pending =
  let n, _ = acceptor ?bounds ?exists ?version stock in
  let rs = Acceptor.record n key in
  List.iter
    (fun (w, d) ->
      if Acceptor.phase2a n rs ~now ballot w d ~classic_until:0 ~rebase:None <> Acceptor.Voted then
        Alcotest.fail "a Phase 2a cast no vote")
    pending;
  (n, rs)

(* The two demarcation rules, each asked through the step that applies
   it: plain escrow through the master's verdict on a classic proposal,
   quorum demarcation (N = 5, Q_F = 4) through a fast proposal, which
   also joins the chain. *)
let esc = `Escrow

let q54 = `Quorum

let decide ?(txid = "new") ~demarcation (n, rs) up =
  match demarcation with
  | `Escrow -> Acceptor.decision_of (Acceptor.escrow n rs up)
  | `Quorum -> (
    match Acceptor.fast_propose n rs ~now (woption ~txid up) with
    | Acceptor.Vote reason -> Acceptor.decision_of reason
    | Acceptor.Behind -> Woption.Rejected
    | Acceptor.Outcome _ | Acceptor.Standing _ | Acceptor.Redirect ->
      Alcotest.fail "a fresh fast proposal got no vote")

let accepted = Alcotest.testable Woption.pp_decision Woption.decision_equal

(* The decision on [up] against a row of [stock] at [version] (present
   unless [exists] is false) with the [accepted] votes pending. *)
let check_eval ?exists ?(version = 1) stock msg expected ~demarcation ~accepted:acc up =
  Alcotest.check accepted msg expected
    (decide ~demarcation (with_pending ~bounds ?exists ~version stock acc) up)

let test_physical_version_check () =
  let v = check_eval ~version:3 10 in
  v "matching vread" Woption.Accepted ~demarcation:esc ~accepted:[]
    (Update.Physical { vread = 3; value = Value.of_list [ ("stock", Value.Int 5) ] });
  v "stale vread" Woption.Rejected ~demarcation:esc ~accepted:[]
    (Update.Physical { vread = 2; value = Value.empty });
  v "future vread (straggler)" Woption.Rejected ~demarcation:esc ~accepted:[]
    (Update.Physical { vread = 4; value = Value.empty })

let test_physical_bounds () =
  check_eval 10 "value violating constraint rejected" Woption.Rejected ~demarcation:esc
    ~accepted:[]
    (Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int (-5)) ] })

let test_insert_delete () =
  let absent = check_eval ~exists:false ~version:0 0 in
  let present = check_eval ~version:2 5 in
  absent "insert on absent" Woption.Accepted ~demarcation:esc ~accepted:[]
    (Update.Insert Value.empty);
  present "insert on present" Woption.Rejected ~demarcation:esc ~accepted:[]
    (Update.Insert Value.empty);
  present "delete with version" Woption.Accepted ~demarcation:esc ~accepted:[]
    (Update.Delete { vread = 2 });
  present "delete stale" Woption.Rejected ~demarcation:esc ~accepted:[]
    (Update.Delete { vread = 1 });
  absent "delta on absent" Woption.Rejected ~demarcation:esc ~accepted:[]
    (Update.Delta [ ("stock", -1) ])

let test_one_outstanding_option () =
  let v = check_eval 10 in
  let outstanding = [ pend ~txid:"other" (Update.Physical { vread = 1; value = Value.empty }) ] in
  (* Deadlock avoidance: the later conflicting option is *rejected*, it does
     not wait (§3.2.2). *)
  v "physical blocked by outstanding" Woption.Rejected ~demarcation:esc ~accepted:outstanding
    (Update.Physical { vread = 1; value = Value.empty });
  v "delta blocked by outstanding physical" Woption.Rejected ~demarcation:esc
    ~accepted:outstanding
    (Update.Delta [ ("stock", -1) ]);
  let outstanding_delta = [ pend ~txid:"other" (Update.Delta [ ("stock", -1) ]) ] in
  v "physical blocked by outstanding delta" Woption.Rejected ~demarcation:esc
    ~accepted:outstanding_delta
    (Update.Physical { vread = 1; value = Value.empty });
  v "delta pipelines with deltas" Woption.Accepted ~demarcation:esc ~accepted:outstanding_delta
    (Update.Delta [ ("stock", -1) ])

let test_escrow_worst_case () =
  let v = check_eval 4 in
  (* Worst case counts all pending accepted decrements as committed. *)
  let pending = List.init 3 (fun i -> pend ~txid:(string_of_int i) (Update.Delta [ ("stock", -1) ])) in
  v "4th decrement fits (4-3-1 >= 0)" Woption.Accepted ~demarcation:esc ~accepted:pending
    (Update.Delta [ ("stock", -1) ]);
  let pending4 = pend ~txid:"x" (Update.Delta [ ("stock", -1) ]) :: pending in
  v "5th decrement rejected (paper's t5 example)" Woption.Rejected ~demarcation:esc
    ~accepted:pending4
    (Update.Delta [ ("stock", -1) ])

let test_escrow_increments_ignore_lower () =
  let v = check_eval 0 in
  v "increment always fine for lower bound" Woption.Accepted ~demarcation:esc ~accepted:[]
    (Update.Delta [ ("stock", 5) ]);
  (* An increment does not relax the worst case for pending decrements:
     pending increments might abort. *)
  let pending = [ pend ~txid:"inc" (Update.Delta [ ("stock", 10) ]) ] in
  v "pending increment does not enable decrement" Woption.Rejected ~demarcation:esc
    ~accepted:pending
    (Update.Delta [ ("stock", -1) ])

let test_quorum_demarcation_limit () =
  (* L = (N - Q_F)/N * X = X/5 with N=5, Q_F=4: from base 10 a single
     acceptor may only go down to 2. *)
  let v = check_eval 10 in
  v "down to limit ok" Woption.Accepted ~demarcation:q54 ~accepted:[]
    (Update.Delta [ ("stock", -8) ]);
  v "below limit rejected even though >= 0" Woption.Rejected ~demarcation:q54 ~accepted:[]
    (Update.Delta [ ("stock", -9) ]);
  (* Escrow (sole decider) would allow -9. *)
  v "escrow allows -9" Woption.Accepted ~demarcation:esc ~accepted:[]
    (Update.Delta [ ("stock", -9) ])

(* The §3.4.2 limit L = lower + (n - qf)/n * (base - lower), multiplied
   through by n: a worst case [base + neg] may reach L and not go below
   it, and symmetrically for an upper bound. *)
let quorum_lower_ok ~n ~qf ~base ~lower worst =
  n * worst >= (n * lower) + ((n - qf) * (base - lower))

let quorum_upper_ok ~n ~qf ~base ~upper worst =
  n * worst <= (n * upper) - ((n - qf) * (upper - base))

let test_demarcation_formulas () =
  (* Exact integer checks of the §3.4.2 limit, with N = 5 and Q_F = 4. *)
  let check msg expected ?(lower = 0) ?upper base d =
    let bounds = [ { Schema.attr = "stock"; lower = Some lower; upper } ] in
    Alcotest.check accepted msg expected
      (decide ~demarcation:q54 (with_pending ~bounds base []) (Update.Delta [ ("stock", d) ]))
  in
  check "10 - 8 >= 2" Woption.Accepted 10 (-8);
  check "10 - 9 < 2" Woption.Rejected 10 (-9);
  check "nonzero lower bound shifts limit" Woption.Accepted ~lower:5 15 (-8);
  check "upper symmetric" Woption.Accepted ~upper:100 90 8;
  check "upper violated" Woption.Rejected ~upper:100 90 9

(* The record's pending votes, as its Phase 1b reports them. *)
let votes n rs = (Acceptor.promise n rs).Messages.votes

let accepted_votes n rs =
  List.filter (fun (v : Messages.vote) -> v.Messages.decision = Woption.Accepted) (votes n rs)

(* The sum of a vote's stock deltas. *)
let delta_sum (v : Messages.vote) =
  List.fold_left (fun a (_, d) -> a + d) 0 (Update.deltas v.Messages.woption.Woption.update)

let decrement = Update.Delta [ ("stock", -1) ]

let test_pending_state_helpers () =
  let n, _ = acceptor 100 in
  let rs = Acceptor.record n key in
  Alcotest.(check bool) "fast era by default" false (Acceptor.in_classic_era rs ~version:0);
  (* A Phase 2a of an option voided here casts no vote, but widens the
     record's window all the same. *)
  let k2 = Key.make ~table:"item" ~id:"k2" in
  let x = { (woption ~txid:"x" decrement) with Woption.key = k2; write_set = [ k2 ] } in
  ignore (Acceptor.visibility n "x" k2 decrement false : Acceptor.visibility);
  let rs2 = Acceptor.record n k2 in
  let widen classic_until =
    Alcotest.(check bool) "a known option's Phase 2a" true
      (Acceptor.phase2a n rs2 ~now ballot x Woption.Accepted ~classic_until ~rebase:None
      = Acceptor.Known)
  in
  widen 5;
  widen 3;
  Alcotest.(check int) "a window only widens" 5 (Acceptor.classic_until rs2);
  Alcotest.(check bool) "classic below" true (Acceptor.in_classic_era rs2 ~version:4);
  Alcotest.(check bool) "fast at" false (Acceptor.in_classic_era rs2 ~version:5);
  let add ?(decision = Woption.Accepted) txid =
    Alcotest.(check bool) ("a vote for " ^ txid) true
      (Acceptor.phase2a n rs ~now ballot (woption ~txid (Update.Delta [ ("stock", -1) ])) decision
         ~classic_until:0 ~rebase:None
      = Acceptor.Voted)
  in
  add "a";
  add ~decision:Woption.Rejected "b";
  Alcotest.(check int) "two pending" 2 (List.length (votes n rs));
  Alcotest.(check int) "one accepted" 1 (List.length (accepted_votes n rs));
  Alcotest.(check bool) "find" true (Acceptor.mem_pending rs "a");
  (* a second vote of one transaction replaces its first *)
  add ~decision:Woption.Rejected "a";
  Alcotest.(check int) "still two" 2 (List.length (votes n rs));
  Alcotest.(check int) "none accepted now" 0 (List.length (accepted_votes n rs));
  Alcotest.(check (list string)) "in arrival order" [ "b"; "a" ]
    (List.map (fun (v : Messages.vote) -> v.Messages.woption.Woption.txid) (votes n rs));
  Alcotest.(check bool) "a void settles the vote" true
    (Acceptor.visibility n "a" key (Update.Delta [ ("stock", -1) ]) false = Acceptor.Voided);
  Alcotest.(check int) "one left" 1 (List.length (votes n rs));
  Alcotest.(check int) "one pending option" 1 (Acceptor.pending_options n);
  Alcotest.(check int) "one record with a vote" 1 (Acceptor.pending_records n)

(* A Phase 1a promise holds fast votes back until its round proposes,
   stepped on the acceptor alone: no engine, no runtime. *)
let test_promise_holds_fast_votes () =
  let n, _ = acceptor 100 in
  let rs = Acceptor.record n key in
  let ballot = Ballot.classic ~number:2 ~proposer:1 and delta = Update.Delta [ ("stock", -1) ] in
  let fast txid = Acceptor.fast_propose n rs ~now (woption ~txid delta) in
  Alcotest.(check bool) "Phase 1a promises (2, 1)" true (Acceptor.phase1a n rs ballot);
  Alcotest.(check bool) "a fast proposal is redirected" true (fast "a" = Acceptor.Redirect);
  Alcotest.(check bool) "the promise stays" true (Ballot.equal (Acceptor.promised rs) ballot);
  Alcotest.(check bool) "Phase 2a at (2, 1) votes" true
    (Acceptor.phase2a n rs ~now ballot (woption ~txid:"b" delta) Woption.Accepted ~classic_until:0
       ~rebase:None
    = Acceptor.Voted);
  Alcotest.(check bool) "the next fast proposal votes fast" true (fast "c" = Acceptor.Vote None)

(* Every verdict of every step, each stepped on the acceptor alone and
   checked through the record's queries. *)

let physical ~vread = Update.Physical { vread; value = Value.of_list [ ("stock", Value.Int 7) ] }

let test_fast_verdicts () =
  let n, store = acceptor ~bounds 100 in
  let rs = Acceptor.record n key in
  let fast ?(txid = "a") update = Acceptor.fast_propose n rs ~now (woption ~txid update) in
  Alcotest.(check bool) "a new option gets a vote" true (fast decrement = Acceptor.Vote None);
  Alcotest.(check bool) "its proposer hears the same vote again" true
    (fast decrement = Acceptor.Standing Woption.Accepted);
  Alcotest.(check bool) "an accepted delta blocks a write" true
    (fast ~txid:"w" (physical ~vread:1) = Acceptor.Vote (Some Acceptor.Outstanding_option));
  Alcotest.(check bool) "the blocked write stands rejected" true
    (fast ~txid:"w" (physical ~vread:1) = Acceptor.Standing Woption.Rejected);
  Alcotest.(check bool) "a committed option's proposer hears the outcome" true
    (Acceptor.visibility n "a" key decrement true = Acceptor.Wrote
    && fast decrement = Acceptor.Outcome true);
  Alcotest.(check bool) "so does a voided one's" true
    (Acceptor.visibility n "v" key decrement false = Acceptor.Voided
    && fast ~txid:"v" decrement = Acceptor.Outcome false);
  Alcotest.(check int) "the row is at version 2" 2 (Store.version store key);
  Alcotest.(check bool) "a read version ahead of the row is behind" true
    (fast ~txid:"b" (physical ~vread:5) = Acceptor.Behind);
  Alcotest.(check bool) "and votes to reject" true
    (match Acceptor.status n "b" key with
    | Messages.Status_pending v -> v.Messages.decision = Woption.Rejected
    | Messages.Status_decided _ | Messages.Status_unknown -> false);
  Alcotest.(check bool) "fast votes keep the fast promise" true
    (Ballot.equal (Acceptor.promised rs) Ballot.initial_fast);
  Alcotest.(check int) "and the fast window" 0 (Acceptor.classic_until rs);
  Alcotest.(check bool) "a classic Phase 2a opens a window" true
    (Acceptor.phase2a n rs ~now ballot (woption ~txid:"v" decrement) Woption.Accepted
       ~classic_until:3 ~rebase:None
    = Acceptor.Known);
  Alcotest.(check bool) "inside a classic window the proposer is redirected" true
    (fast ~txid:"c" decrement = Acceptor.Redirect)

let test_phase2a_verdicts () =
  let n, store = acceptor ~bounds 100 in
  let rs = Acceptor.record n key in
  let b2 = Ballot.classic ~number:2 ~proposer:1 and b3 = Ballot.classic ~number:3 ~proposer:1 in
  let phase2a ?rebase ballot txid =
    Acceptor.phase2a n rs ~now ballot (woption ~txid decrement) Woption.Accepted ~classic_until:7
      ~rebase
  in
  Alcotest.(check bool) "Phase 1a promises (3, 1)" true (Acceptor.phase1a n rs b3);
  Alcotest.(check bool) "a Phase 2a below the promise is refused" true
    (phase2a b2 "a" = Acceptor.Refused);
  Alcotest.(check bool) "and leaves the promise" true (Ballot.equal (Acceptor.promised rs) b3);
  Alcotest.(check int) "and the window" 0 (Acceptor.classic_until rs);
  Alcotest.(check bool) "nor votes" false (Acceptor.mem_pending rs "a");
  Alcotest.(check bool) "a Phase 2a at the promise votes" true (phase2a b3 "a" = Acceptor.Voted);
  Alcotest.(check int) "and widens the window" 7 (Acceptor.classic_until rs);
  Alcotest.(check bool) "the master's escrow sees the vote" true
    (Acceptor.escrow n rs (physical ~vread:1) = Some Acceptor.Outstanding_option);
  Alcotest.(check bool) "a committed option is known" true
    (Acceptor.visibility n "a" key decrement true = Acceptor.Wrote
    && phase2a b3 "a" = Acceptor.Known);
  Alcotest.(check bool) "and gets no vote" false (Acceptor.mem_pending rs "a");
  Alcotest.(check bool) "nothing is pending, so escrow accepts" true
    (Acceptor.escrow n rs (physical ~vread:2) = None);
  let newer version =
    let rb = Acceptor.rebase_of n key in
    { rb with Messages.version; value = Value.of_list [ ("stock", Value.Int 50) ] }
  in
  Alcotest.(check bool) "a newer re-based state repairs the row before the vote" true
    (phase2a ~rebase:(newer 5) b3 "c" = Acceptor.Voted_rebased);
  Alcotest.(check int) "the row takes its version" 5 (Store.version store key);
  Alcotest.(check bool) "and a known option's round repairs it too" true
    (phase2a ~rebase:(newer 6) b3 "a" = Acceptor.Known_rebased);
  Alcotest.(check bool) "an older state repairs nothing" true
    (phase2a ~rebase:(newer 6) b3 "a" = Acceptor.Known)

let test_visibility_verdicts () =
  let n, store = acceptor 100 in
  let visibility txid update committed = Acceptor.visibility n txid key update committed in
  let rs = Acceptor.record n key in
  Alcotest.(check bool) "a committed delta is written" true
    (visibility "a" decrement true = Acceptor.Wrote);
  Alcotest.(check bool) "a second Visibility is ignored" true
    (visibility "a" decrement true = Acceptor.Ignored);
  Alcotest.(check bool) "a committed read guard is skipped" true
    (visibility "g" (Update.Read_guard { vread = 2 }) true = Acceptor.Skipped);
  Alcotest.(check bool) "so is a write the row is past" true
    (visibility "p" (physical ~vread:1) true = Acceptor.Skipped);
  Alcotest.(check int) "neither moves the row" 2 (Store.version store key);
  Alcotest.(check bool) "an aborted option is voided" true
    (visibility "v" decrement false = Acceptor.Voided);
  Alcotest.(check bool) "the log holds the guard and the void" true
    ((Acceptor.promise n rs).Messages.decided = [ ("v", false); ("g", true) ]);
  Alcotest.(check bool) "a placeholder's Visibility is unknown" true
    (Acceptor.fast_propose n rs ~now (woption ~txid:"u" (physical ~vread:2)) = Acceptor.Vote None
    && visibility "u" (physical ~vread:(-1)) true = Acceptor.Unknown);
  Alcotest.(check bool) "and keeps the vote" true (Acceptor.mem_pending rs "u");
  Alcotest.(check bool) "and logs nothing" true (Acceptor.outcome n rs "u" = None)

(* A logged outcome is final: a Visibility that re-asserts it, with either
   outcome, is ignored, and the log holds each txid once.  A rebase moves a
   logged txid into the applied set and a newer one without it logs it
   again, committed, as the newest entry. *)
let test_reasserted_outcome () =
  let n, _ = acceptor 100 in
  let rs = Acceptor.record n key in
  let visibility txid update committed = Acceptor.visibility n txid key update committed in
  let guard = Update.Read_guard { vread = 1 } in
  let decided () = (Acceptor.promise n rs).Messages.decided in
  let log = Alcotest.(list (pair string bool)) in
  Alcotest.(check bool) "a void" true (visibility "v" decrement false = Acceptor.Voided);
  Alcotest.(check bool) "a committed guard" true (visibility "g" guard true = Acceptor.Skipped);
  List.iter
    (fun committed ->
      Alcotest.(check bool) "the void re-asserted: ignored" true
        (visibility "v" decrement committed = Acceptor.Ignored);
      Alcotest.(check bool) "the guard re-asserted: ignored" true
        (visibility "g" guard committed = Acceptor.Ignored))
    [ true; false ];
  Alcotest.(check (option bool)) "the void's outcome" (Some false) (Acceptor.outcome n rs "v");
  Alcotest.(check (option bool)) "the guard's outcome" (Some true) (Acceptor.outcome n rs "g");
  Alcotest.check log "the log, newest first, each txid once" [ ("g", true); ("v", false) ]
    (decided ());
  Alcotest.(check bool) "the applied set holds neither" true
    (Txn.Map.is_empty (Acceptor.applied n key));
  let rebase version included =
    Acceptor.rebase n key
      { Messages.value = Value.of_list [ ("stock", Value.Int 90) ]; version; exists = true;
        included }
  in
  Alcotest.(check bool) "a rebase that includes the guard" true
    (rebase 5 (Txn.Map.singleton "g" guard));
  Alcotest.check log "the guard leaves the log" [ ("v", false) ] (decided ());
  Alcotest.(check (option bool)) "still committed" (Some true) (Acceptor.outcome n rs "g");
  Alcotest.(check bool) "a newer rebase without it" true (rebase 6 Txn.Map.empty);
  Alcotest.check log "the guard is logged again, newest" [ ("g", true); ("v", false) ]
    (decided ());
  Alcotest.(check (option bool)) "the void stays voided" (Some false) (Acceptor.outcome n rs "v")

let test_status_answers () =
  let n, _ = acceptor 100 in
  let status txid = Acceptor.status n txid key in
  Alcotest.(check bool) "no record: unknown" true (status "a" = Messages.Status_unknown);
  let rs = Acceptor.record n key in
  Alcotest.(check bool) "no vote: unknown" true (status "a" = Messages.Status_unknown);
  ignore (Acceptor.fast_propose n rs ~now (woption ~txid:"a" decrement) : Acceptor.fast);
  Alcotest.(check bool) "a vote: pending, with its decision and ballot" true
    (match status "a" with
    | Messages.Status_pending v ->
      v.Messages.woption.Woption.txid = "a"
      && v.Messages.decision = Woption.Accepted
      && Ballot.equal v.Messages.ballot Ballot.initial_fast
    | Messages.Status_decided _ | Messages.Status_unknown -> false);
  ignore (Acceptor.visibility n "a" key decrement false : Acceptor.visibility);
  Alcotest.(check bool) "a visibility: decided" true (status "a" = Messages.Status_decided false)

let test_phase1a_nack () =
  let n, _ = acceptor 100 in
  let rs = Acceptor.record n key in
  let b21 = Ballot.classic ~number:2 ~proposer:1 in
  Alcotest.(check bool) "a first promise" true (Acceptor.phase1a n rs b21);
  Alcotest.(check bool) "a lower ballot is nacked" false
    (Acceptor.phase1a n rs (Ballot.classic ~number:1 ~proposer:5));
  Alcotest.(check bool) "and so is the same ballot" false (Acceptor.phase1a n rs b21);
  Alcotest.(check bool) "the promise stands" true (Ballot.equal (Acceptor.promised rs) b21);
  Alcotest.(check bool) "a higher proposer at the same number is promised" true
    (Acceptor.phase1a n rs (Ballot.classic ~number:2 ~proposer:3))

(* The master's Phase 1 resolution, stepped on the acceptor alone: the
   record [key] of a five-replica acceptor (fast quorum 4) whose row holds
   100 at version 1, folding the promises of replicas 0, 1 and 2.  With
   three of five responding, [Quorum.anchor_threshold] is 4 - 2 = 2. *)

let replicas = [ 0; 1; 2; 3; 4 ]

let reported ?(decision = Woption.Accepted) ?number w =
  let ballot =
    match number with
    | Some number -> Ballot.classic ~number ~proposer:0
    | None -> Ballot.initial_fast
  in
  { Messages.woption = w; decision; ballot }

(* A Phase 1b promise: its votes, a row holding 100 at [version] with
   [included] applied, and its decided log. *)
let promise_of ?(decided = []) ?(included = Txn.Map.empty) ?(version = 1) votes =
  let rebase =
    { Messages.value = Value.of_list [ ("stock", Value.Int 100) ]; version; exists = true;
      included }
  in
  { Messages.votes; rebase; decided }

let resolve ?(extras = []) n promises =
  Acceptor.resolve n (Acceptor.record n key) ~extras ~replicas
    ~promises:(List.mapi (fun src p -> (src, p)) promises)

let txids l = List.map (fun ((w : Woption.t), _) -> w.Woption.txid) l

let decision_of_txid (r : Acceptor.resolution) txid =
  List.assoc txid (List.map (fun ((w : Woption.t), d) -> (w.Woption.txid, d)) r.Acceptor.outcomes)

let test_resolve_known () =
  let n, _ = acceptor ~bounds 100 in
  let a = woption ~txid:"a" decrement and c = woption ~txid:"c" decrement in
  let i = woption ~txid:"i" decrement and l = woption ~txid:"l" decrement in
  ignore (Acceptor.visibility n "l" key decrement false : Acceptor.visibility);
  let r =
    resolve n
      [
        promise_of ~decided:[ ("a", true) ] [ reported a; reported c; reported l ];
        promise_of ~included:(Txn.Map.singleton "i" decrement) [ reported a; reported i ];
        promise_of [ reported c ];
      ]
  in
  Alcotest.(check (list (pair string bool))) "outcomes a responder or this node knows"
    [ ("a", true); ("i", true); ("l", false) ]
    (List.sort compare (List.map (fun ((w : Woption.t), c) -> (w.Woption.txid, c)) r.Acceptor.known));
  Alcotest.(check (list string)) "are not re-proposed" [ "c" ] (txids r.Acceptor.outcomes)

let test_resolve_classic_votes () =
  let n, _ = acceptor ~bounds 100 in
  let h = woption ~txid:"h" decrement and e = woption ~txid:"e" decrement in
  let e' = woption ~txid:"e'" decrement in
  let r =
    resolve n
      [
        promise_of
          [ reported ~number:2 ~decision:Woption.Rejected h; reported ~number:3 e;
            reported ~number:3 ~decision:Woption.Rejected e' ];
        promise_of
          [ reported ~number:3 h; reported ~number:3 ~decision:Woption.Rejected e;
            reported ~number:3 e' ];
        promise_of [ reported ~number:1 ~decision:Woption.Rejected h ];
      ]
  in
  Alcotest.check accepted "the highest ballot wins" Woption.Accepted (decision_of_txid r "h");
  Alcotest.check accepted "the last reported wins among equals" Woption.Rejected
    (decision_of_txid r "e");
  Alcotest.check accepted "in either order" Woption.Accepted (decision_of_txid r "e'");
  Alcotest.(check (pair int int)) "three forced, none free" (3, 0)
    (r.Acceptor.forced, r.Acceptor.free)

let test_resolve_fast_threshold () =
  let n, _ = acceptor ~bounds 100 in
  let f2 = woption ~txid:"f2" decrement and r2 = woption ~txid:"r2" decrement in
  let f1 = woption ~txid:"f1" (physical ~vread:0) in
  let rejected = reported ~decision:Woption.Rejected in
  let r =
    resolve n
      [
        promise_of [ reported f2; rejected r2; reported f1 ];
        promise_of [ reported f2; rejected r2 ];
        promise_of [];
      ]
  in
  Alcotest.check accepted "two fast accepts force an accept" Woption.Accepted
    (decision_of_txid r "f2");
  Alcotest.check accepted "two fast rejects force a reject" Woption.Rejected
    (decision_of_txid r "r2");
  Alcotest.check accepted "one fast accept leaves the option free, and validation rejects it"
    Woption.Rejected (decision_of_txid r "f1");
  Alcotest.(check (pair int int)) "two forced, one free" (2, 1) (r.Acceptor.forced, r.Acceptor.free)

let test_resolve_validation () =
  let n, _ = acceptor ~bounds 100 in
  let ok = woption ~txid:"ok" (physical ~vread:1) in
  let stale = woption ~txid:"stale" (physical ~vread:0) in
  let rej = woption ~txid:"rej" decrement in
  let big = woption ~txid:"big" (Update.Delta [ ("stock", -500) ]) in
  let r =
    resolve n
      [
        promise_of
          [ reported ~number:5 ok; reported ~number:2 stale;
            reported ~number:2 ~decision:Woption.Rejected rej; reported ~number:2 big ];
        promise_of [];
        promise_of [];
      ]
  in
  Alcotest.check accepted "a forced reject stands" Woption.Rejected (decision_of_txid r "rej");
  Alcotest.check accepted "so does a forced commutative accept past the bound" Woption.Accepted
    (decision_of_txid r "big");
  Alcotest.check accepted "a forced write at a stale version is re-validated to a reject"
    Woption.Rejected (decision_of_txid r "stale");
  Alcotest.check accepted "and one at the current version is re-validated to an accept"
    Woption.Accepted (decision_of_txid r "ok")

let test_resolve_order () =
  let n, _ = acceptor ~bounds 100 in
  let w txid update = woption ~txid update in
  let c1 = w "c1" decrement and c2 = w "c2" decrement in
  let fz = w "fz" decrement and fa = w "fa" (Update.Read_guard { vread = 1 }) in
  let x0 = w "x0" (Update.Insert Value.empty) and x1 = w "x1" (physical ~vread:1) in
  let x2 = w "x2" (physical ~vread:1) and x3 = w "x3" (physical ~vread:2) in
  let r =
    resolve n ~extras:[ x3 ]
      [
        promise_of
          [ reported x2; reported ~number:2 c1; reported fz; reported x1; reported ~number:4 c2;
            reported fa; reported x0 ];
        promise_of [ reported fa; reported fz ];
        promise_of [];
      ]
  in
  Alcotest.(check (list string))
    "classic by ballot, then fast-forced, then free, oldest instance first"
    [ "c2"; "c1"; "fa"; "fz"; "x0"; "x1"; "x2"; "x3" ]
    (txids r.Acceptor.outcomes)

let test_resolve_window () =
  let n, store = acceptor 100 in
  let r = resolve n [ promise_of []; promise_of ~version:7 []; promise_of ~version:3 [] ] in
  Alcotest.(check bool) "the freshest state re-bases the record" true r.Acceptor.rebased;
  Alcotest.(check int) "the row takes its version" 7 (Store.version store key);
  Alcotest.(check int) "the Phase 2a's carry it" 7 r.Acceptor.rebase.Messages.version;
  Alcotest.(check int) "the window is its version + γ" 107 r.Acceptor.window;
  Alcotest.(check int) "and the record's" 107 (Acceptor.classic_until (Acceptor.record n key));
  Alcotest.(check bool) "a second resolution re-bases nothing" false
    (resolve n [ promise_of []; promise_of []; promise_of [] ]).Acceptor.rebased;
  let multi = Mdcc_core.Config.make ~mode:Mdcc_core.Config.Multi ~replication:5 () in
  let n, _ = acceptor ~config:multi 100 in
  Alcotest.(check int) "no end in Multi mode" max_int
    (resolve n [ promise_of ~version:7 []; promise_of []; promise_of [] ]).Acceptor.window

(* ROADMAP item 1's re-decided option, on the path of [drop_spike] 299,
   stepped on five acceptors alone.  "a" writes version 1 and gets five
   fast accepts, a fast quorum: it is chosen, and its coordinator
   commits it.  Its Visibility reaches replicas 3 and 4 only.  "b" read
   a's version 2 and commits too; its Visibility executes on every
   replica, so rows 0-2 move to version 3 with a's accepts still pending
   there.  Replica 2's Phase 1 over 0, 1 and 2 finds three fast accepts
   of "a", which anchor it, and re-validates the physical write against
   the re-based row at version 3, past a's instance: Rejected.  The fix
   flips the verdict to Accepted. *)
let test_known_defect_redecided_option () =
  let nodes = Array.init 5 (fun _ -> fst (acceptor 100)) in
  let rs i = Acceptor.record nodes.(i) key in
  let a = woption ~txid:"a" (physical ~vread:1) and b = woption ~txid:"b" (physical ~vread:2) in
  Alcotest.(check bool) "five fast accepts of a" true
    (List.for_all (fun i -> Acceptor.fast_propose nodes.(i) (rs i) ~now a = Acceptor.Vote None)
       replicas);
  let execute (w : Woption.t) i =
    Acceptor.visibility nodes.(i) w.Woption.txid key w.Woption.update true = Acceptor.Wrote
  in
  Alcotest.(check bool) "a executes on 3 and 4, b everywhere" true
    (List.for_all (execute a) [ 3; 4 ] && List.for_all (execute b) replicas);
  let b2 = Ballot.classic ~number:2 ~proposer:2 in
  let promises =
    List.map
      (fun i ->
        if not (Acceptor.phase1a nodes.(i) (rs i) b2) then Alcotest.fail "a Phase 1a was nacked";
        (i, Acceptor.promise nodes.(i) (rs i)))
      [ 0; 1; 2 ]
  in
  let r = Acceptor.resolve nodes.(2) (rs 2) ~promises ~extras:[] ~replicas in
  Alcotest.(check (pair int int)) "a is anchored" (1, 0) (r.Acceptor.forced, r.Acceptor.free);
  Alcotest.check accepted "known defect, item 1: the chosen option is re-decided" Woption.Rejected
    (decision_of_txid r "a")

(* ROADMAP item 3, cause 1, stepped on five acceptors alone: N = 5,
   Q_F = 4, stock 10 and lower bound 0.  The paper takes each acceptor's
   limit from X, the base the last classic ballot wrote, so each admits
   at most Q_F/N (X - lower) = 8 of decrements and the committed total
   stays within X - lower = 10.  Here the limit follows the row.  Five
   deltas of -2 each reach a fast quorum, c_k at every replica but k: 10
   units, 8 pending at each replica.  Replicas 0-3 execute the four they
   voted for but not the one they missed, so each row reads 2 with
   nothing pending, a limit of 2/5 that admits one unit more: a sixth
   delta of -1 reaches a fast quorum.  11 units commit, and a replica
   that executes them all reads -1. *)
let test_known_defect_limit_follows_row () =
  let nodes = Array.init 5 (fun _ -> acceptor ~bounds 10) in
  let node i = fst nodes.(i) in
  let fast i w = Acceptor.fast_propose (node i) (Acceptor.record (node i) key) ~now w in
  let execute i (w : Woption.t) =
    ignore
      (Acceptor.visibility (node i) w.Woption.txid key w.Woption.update true : Acceptor.visibility)
  in
  let c =
    Array.init 5 (fun k -> woption ~txid:(Printf.sprintf "c%d" k) (Update.Delta [ ("stock", -2) ]))
  in
  let reaches k w = List.for_all (fun i -> i = k || fast i w = Acceptor.Vote None) replicas in
  Alcotest.(check bool) "each -2 is accepted by the four replicas it reaches" true
    (Array.for_all Fun.id (Array.mapi reaches c));
  List.iter (fun i -> Array.iteri (fun k w -> if k <> i then execute i w) c) [ 0; 1; 2; 3 ];
  let last = woption ~txid:"c5" decrement in
  Alcotest.(check bool) "known defect, item 3: an 11th unit reaches a fast quorum" true
    (List.for_all (fun i -> fast i last = Acceptor.Vote None) [ 0; 1; 2; 3 ]);
  execute 0 c.(0);
  execute 0 last;
  Alcotest.(check int) "the stock goes below its bound" (-1)
    (Value.get_int (Store.ensure (snd nodes.(0)) key).Store.value "stock")

(* One entry of the list model: a txid's vote and the stock delta of its
   option, [0] standing for a physical write. *)
type entry = { m_txid : string; m_decision : Woption.decision; m_delta : int }

let update_of d =
  if d = 0 then Update.Physical { vread = 1; value = Value.empty }
  else Update.Delta [ ("stock", d) ]

(* The decision on a delta of [d] against the model's accepted entries,
   written with list folds: any accepted physical write is outstanding;
   otherwise the worst-case sums must stay within [0, 40] under the
   quorum-demarcation limit, from a base of 20. *)
let model_delta_decision entries d =
  let acc = List.filter (fun e -> e.m_decision = Woption.Accepted) entries in
  if List.exists (fun e -> e.m_delta = 0) acc then Woption.Rejected
  else
    let neg = List.fold_left (fun n e -> n + min 0 e.m_delta) 0 acc
    and pos = List.fold_left (fun n e -> n + max 0 e.m_delta) 0 acc in
    let n = 5 and qf = Mdcc_core.Config.fast_quorum config in
    if
      quorum_lower_ok ~n ~qf ~base:20 ~lower:0 (20 + neg + min 0 d)
      && quorum_upper_ok ~n ~qf ~base:20 ~upper:40 (20 + pos + max 0 d)
    then Woption.Accepted
    else Woption.Rejected

(* Property: the pending chains of three records of one acceptor, stepped
   through its inputs, behave as the filter-and-append list model of a
   pending list.  A Phase 2a votes the decision it carries, a fast
   proposal of a delta the model's decision (the accepted-only
   outstanding check and the demarcation sums), both appended in arrival
   order, one vote per txid, a re-voted txid moved to the end; a void
   Visibility removes the vote and decides the transaction, after which
   it gets no vote and a fast proposal hears its outcome.  The chains as
   Phase 1b reports them, [status], [mem_pending] and the node's pending
   counts answer as the model would.  A settled vote goes back to the
   node's free list holding no option: each option is also kept in a weak
   slot, and after a full collection at the end of a run the options alive
   are those of the votes still on a chain, one each. *)
let prop_pending_ops_match_list_model =
  QCheck.Test.make ~name:"pending ops match the filter/append model" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (quad (int_range 0 3) (int_range 0 2) (int_range 0 4) (pair bool (int_range (-4) 4))))
    (fun ops ->
      let bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = Some 40 } ] in
      let schema = Schema.create [ { Schema.name = "item"; bounds; master_dc = 0 } ] in
      let store = Store.create schema in
      let n = Acceptor.create_node ~config store in
      let keys = Array.init 3 (fun i -> Key.make ~table:"item" ~id:(string_of_int i)) in
      Array.iter
        (fun k ->
          let row = Store.ensure store k in
          row.Store.value <- Value.of_list [ ("stock", Value.Int 20) ];
          row.Store.version <- 1;
          row.Store.exists <- true)
        keys;
      let records = Array.map (Acceptor.record n) keys in
      let models = Array.make 3 [] and decided = Array.make 3 [] and kept = ref [] in
      let view (v : Messages.vote) =
        {
          m_txid = v.Messages.woption.Woption.txid;
          m_decision = v.Messages.decision;
          m_delta =
            (match Update.deltas v.Messages.woption.Woption.update with [ (_, d) ] -> d | _ -> 0);
        }
      in
      let consistent () =
        let chains = Array.to_list (Array.map (votes n) records) in
        List.for_all2 (fun votes model -> List.map view votes = model) chains (Array.to_list models)
        && Acceptor.pending_options n = List.length (List.concat (Array.to_list models))
        && Acceptor.pending_records n
           = List.length (List.filter (fun m -> m <> []) (Array.to_list models))
      in
      List.for_all
        (fun (op, r, i, (acc, d)) ->
          let rs = records.(r) and key = keys.(r) and txid = Printf.sprintf "t%d" i in
          let is_decided = List.mem txid decided.(r) in
          let without = List.filter (fun e -> e.m_txid <> txid) models.(r) in
          let entry = List.find_opt (fun e -> e.m_txid = txid) models.(r) in
          let append decision d =
            models.(r) <- without @ [ { m_txid = txid; m_decision = decision; m_delta = d } ]
          in
          let w update =
            let o = { (woption ~txid update) with Woption.key; write_set = [ key ] } in
            let slot = Weak.create 1 in
            Weak.set slot 0 (Some o);
            kept := (r, txid, slot) :: !kept;
            o
          in
          let step_ok =
            match op with
            | 0 ->
              let decision = if acc then Woption.Accepted else Woption.Rejected in
              let verdict =
                Acceptor.phase2a n rs ~now ballot (w (update_of d)) decision ~classic_until:0
                  ~rebase:None
              in
              if is_decided then verdict = Acceptor.Known
              else begin
                append decision d;
                verdict = Acceptor.Voted
              end
            | 1 ->
              let verdict = Acceptor.visibility n txid key (update_of d) false in
              if is_decided then verdict = Acceptor.Ignored
              else begin
                models.(r) <- without;
                decided.(r) <- txid :: decided.(r);
                verdict = Acceptor.Voided
              end
            | 2 ->
              (match (Acceptor.status n txid key, entry) with
              | Messages.Status_decided false, None -> is_decided
              | Messages.Status_pending v, Some e -> view v = e
              | Messages.Status_unknown, None -> not is_decided
              | _ -> false)
              && Acceptor.mem_pending rs txid = Option.is_some entry
            | _ -> (
              let d = if d = 0 then 1 else d in
              let verdict = Acceptor.fast_propose n rs ~now (w (Update.Delta [ ("stock", d) ])) in
              match (verdict, entry) with
              | Acceptor.Outcome false, None -> is_decided
              | Acceptor.Standing decision, Some e -> decision = e.m_decision
              | Acceptor.Vote reason, None ->
                let decision = Acceptor.decision_of reason in
                append decision d;
                decision = model_delta_decision without d && not is_decided
              | _ -> false)
          in
          step_ok && consistent ())
        ops
      && begin
           Gc.full_major ();
           let alive = List.filter (fun (_, _, slot) -> Weak.check slot 0) !kept in
           List.for_all
             (fun (r, txid, _) -> List.exists (fun e -> e.m_txid = txid) models.(r))
             alive
           && List.length alive = Acceptor.pending_options n
         end)

(* Property: [evaluate] on deltas agrees with the bound test written as
   folds over the accepted options (worst-case negative and positive sums),
   for lower and upper limits under both demarcation modes. *)
let prop_delta_decision_matches_fold_model =
  QCheck.Test.make ~name:"delta decision matches the fold model" ~count:500
    QCheck.(
      quad (int_range 0 30)
        (list_of_size Gen.(int_range 0 5) (int_range (-6) 6))
        (int_range (-8) 8) bool)
    (fun (base, pending, d, quorum) ->
      let bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = Some 40 } ] in
      let accepted =
        List.mapi
          (fun i x -> pend ~txid:(Printf.sprintf "p%d" i) (Update.Delta [ ("stock", x) ]))
          pending
      in
      let neg = List.fold_left (fun acc x -> acc + min 0 x) 0 pending
      and pos = List.fold_left (fun acc x -> acc + max 0 x) 0 pending in
      let n, qf = (5, 4) in
      let model =
        if quorum then
          quorum_lower_ok ~n ~qf ~base ~lower:0 (base + neg + min 0 d)
          && quorum_upper_ok ~n ~qf ~base ~upper:40 (base + pos + max 0 d)
        else base + neg + min 0 d >= 0 && base + pos + max 0 d <= 40
      in
      let demarcation = if quorum then q54 else esc in
      decide ~demarcation (with_pending ~bounds base accepted) (Update.Delta [ ("stock", d) ])
      = if model then Woption.Accepted else Woption.Rejected)

(* Property: the demarcation acceptance rule is safe — for ANY subset of the
   accepted pending decrements committing, a single acceptor's accepted set
   never drives the replicated value below  L = lower + (n-qf)/n*(base-lower),
   and in particular never below zero once multiplied out across a fast
   quorum (the paper's resource argument). We check the local limit. *)
let prop_demarcation_local_safety =
  QCheck.Test.make ~name:"demarcation: accepted set respects local limit" ~count:500
    QCheck.(
      triple (int_range 0 50) (list_of_size Gen.(int_range 0 12) (int_range 1 6)) (int_range 0 5))
    (fun (base, decs, lower) ->
      QCheck.assume (base >= lower);
      let bounds = [ { Schema.attr = "stock"; lower = Some lower; upper = None } ] in
      (* Feed decrements one at a time through fast proposals. *)
      let n, rs = with_pending ~bounds base [] in
      List.iteri
        (fun i d ->
          ignore
            (decide ~txid:(string_of_int i) ~demarcation:q54 (n, rs)
               (Update.Delta [ ("stock", -d) ])
              : Woption.decision))
        decs;
      let total_accepted = List.fold_left (fun acc v -> acc + delta_sum v) 0 (accepted_votes n rs) in
      (* All accepted committing leaves the local view at or above L. *)
      5 * (base + total_accepted) >= (5 * lower) + (1 * (base - lower)))

(* Property: escrow never lets the worst case cross the bound. *)
let prop_escrow_safety =
  QCheck.Test.make ~name:"escrow: worst case stays in bounds" ~count:500
    QCheck.(pair (int_range 0 40) (list_of_size Gen.(int_range 0 15) (int_range (-5) 5)))
    (fun (base, deltas) ->
      (* The master's path: each classic proposal escrow accepts is voted
         on through a Phase 2a. *)
      let n, rs = with_pending ~bounds base [] in
      List.iteri
        (fun i d ->
          QCheck.assume (d <> 0);
          let w = woption ~txid:(string_of_int i) (Update.Delta [ ("stock", d) ]) in
          if Acceptor.escrow n rs w.Woption.update = None then
            ignore
              (Acceptor.phase2a n rs ~now ballot w Woption.Accepted ~classic_until:0 ~rebase:None
                : Acceptor.phase2a))
        deltas;
      let neg =
        List.fold_left (fun acc v -> acc + Stdlib.min 0 (delta_sum v)) 0 (accepted_votes n rs)
      in
      base + neg >= 0)

let suite =
  [
    Alcotest.test_case "physical version check" `Quick test_physical_version_check;
    Alcotest.test_case "physical bounds check" `Quick test_physical_bounds;
    Alcotest.test_case "insert/delete validation" `Quick test_insert_delete;
    Alcotest.test_case "one outstanding option / deadlock avoidance" `Quick
      test_one_outstanding_option;
    Alcotest.test_case "escrow worst case (paper t1..t5)" `Quick test_escrow_worst_case;
    Alcotest.test_case "escrow increments" `Quick test_escrow_increments_ignore_lower;
    Alcotest.test_case "quorum demarcation limit" `Quick test_quorum_demarcation_limit;
    Alcotest.test_case "demarcation formulas" `Quick test_demarcation_formulas;
    Alcotest.test_case "pending state helpers" `Quick test_pending_state_helpers;
    Alcotest.test_case "a promise holds fast votes back" `Quick test_promise_holds_fast_votes;
    Alcotest.test_case "every fast proposal verdict" `Quick test_fast_verdicts;
    Alcotest.test_case "every Phase 2a verdict" `Quick test_phase2a_verdicts;
    Alcotest.test_case "every visibility verdict" `Quick test_visibility_verdicts;
    Alcotest.test_case "every status answer" `Quick test_status_answers;
    Alcotest.test_case "a nacked Phase 1a" `Quick test_phase1a_nack;
    Alcotest.test_case "a recovery announces known outcomes" `Quick test_resolve_known;
    Alcotest.test_case "a recovery's classic votes" `Quick test_resolve_classic_votes;
    Alcotest.test_case "a recovery's fast-vote threshold" `Quick test_resolve_fast_threshold;
    Alcotest.test_case "a recovery's validation" `Quick test_resolve_validation;
    Alcotest.test_case "a recovery's re-proposal order" `Quick test_resolve_order;
    Alcotest.test_case "a recovery's classic window" `Quick test_resolve_window;
    Alcotest.test_case "known defect, item 1: Phase 1 re-decides a chosen option" `Quick
      test_known_defect_redecided_option;
    Alcotest.test_case "known defect, item 3: the fast limit follows the row" `Quick
      test_known_defect_limit_follows_row;
    QCheck_alcotest.to_alcotest prop_demarcation_local_safety;
    QCheck_alcotest.to_alcotest prop_escrow_safety;
    QCheck_alcotest.to_alcotest prop_pending_ops_match_list_model;
    QCheck_alcotest.to_alcotest prop_delta_decision_matches_fold_model;
    Alcotest.test_case "a re-asserted outcome keeps its first answer" `Quick
      test_reasserted_outcome;
  ]
