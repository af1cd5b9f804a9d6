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

let valuation ?(exists = true) ?(version = 1) stock =
  { Acceptor.value = Value.of_list [ ("stock", Value.Int stock) ]; version; exists }

let woption ?(txid = "t") update =
  { Woption.txid; key; update; write_set = [ key ]; coordinator = 99 }

(* An outstanding option and this replica's vote on it. *)
let pend ?(txid = "t") ?(decision = Woption.Accepted) update = (woption ~txid update, decision)

(* A chain of fresh votes with the list's options, in the list's order. *)
let chain l =
  List.fold_right (fun (w, d) next -> Acceptor.vote ~next w d Ballot.initial_fast) l Acceptor.none

(* The sum of an option's stock deltas. *)
let delta_sum ((w : Woption.t), _) =
  List.fold_left (fun a (_, d) -> a + d) 0 (Update.deltas w.Woption.update)

let accepted = Alcotest.testable Woption.pp_decision Woption.decision_equal

let check_eval msg expected ~demarcation v ~accepted:acc up =
  Alcotest.check accepted msg expected
    (Acceptor.evaluate ~bounds ~demarcation v ~pending:(chain acc) up)

let esc = `Escrow

let q54 = `Quorum (5, 4)

let test_physical_version_check () =
  let v = valuation ~version:3 10 in
  check_eval "matching vread" Woption.Accepted ~demarcation:esc v ~accepted:[]
    (Update.Physical { vread = 3; value = Value.of_list [ ("stock", Value.Int 5) ] });
  check_eval "stale vread" Woption.Rejected ~demarcation:esc v ~accepted:[]
    (Update.Physical { vread = 2; value = Value.empty });
  check_eval "future vread (straggler)" Woption.Rejected ~demarcation:esc v ~accepted:[]
    (Update.Physical { vread = 4; value = Value.empty })

let test_physical_bounds () =
  let v = valuation ~version:1 10 in
  check_eval "value violating constraint rejected" Woption.Rejected ~demarcation:esc v
    ~accepted:[]
    (Update.Physical { vread = 1; value = Value.of_list [ ("stock", Value.Int (-5)) ] })

let test_insert_delete () =
  let absent = valuation ~exists:false ~version:0 0 in
  let present = valuation ~version:2 5 in
  check_eval "insert on absent" Woption.Accepted ~demarcation:esc absent ~accepted:[]
    (Update.Insert Value.empty);
  check_eval "insert on present" Woption.Rejected ~demarcation:esc present ~accepted:[]
    (Update.Insert Value.empty);
  check_eval "delete with version" Woption.Accepted ~demarcation:esc present ~accepted:[]
    (Update.Delete { vread = 2 });
  check_eval "delete stale" Woption.Rejected ~demarcation:esc present ~accepted:[]
    (Update.Delete { vread = 1 });
  check_eval "delta on absent" Woption.Rejected ~demarcation:esc absent ~accepted:[]
    (Update.Delta [ ("stock", -1) ])

let test_one_outstanding_option () =
  let v = valuation ~version:1 10 in
  let outstanding = [ pend ~txid:"other" (Update.Physical { vread = 1; value = Value.empty }) ] in
  (* Deadlock avoidance: the later conflicting option is *rejected*, it does
     not wait (§3.2.2). *)
  check_eval "physical blocked by outstanding" Woption.Rejected ~demarcation:esc v
    ~accepted:outstanding
    (Update.Physical { vread = 1; value = Value.empty });
  check_eval "delta blocked by outstanding physical" Woption.Rejected ~demarcation:esc v
    ~accepted:outstanding
    (Update.Delta [ ("stock", -1) ]);
  let outstanding_delta = [ pend ~txid:"other" (Update.Delta [ ("stock", -1) ]) ] in
  check_eval "physical blocked by outstanding delta" Woption.Rejected ~demarcation:esc v
    ~accepted:outstanding_delta
    (Update.Physical { vread = 1; value = Value.empty });
  check_eval "delta pipelines with deltas" Woption.Accepted ~demarcation:esc v
    ~accepted:outstanding_delta
    (Update.Delta [ ("stock", -1) ])

let test_escrow_worst_case () =
  let v = valuation 4 in
  (* Worst case counts all pending accepted decrements as committed. *)
  let pending = List.init 3 (fun i -> pend ~txid:(string_of_int i) (Update.Delta [ ("stock", -1) ])) in
  check_eval "4th decrement fits (4-3-1 >= 0)" Woption.Accepted ~demarcation:esc v
    ~accepted:pending
    (Update.Delta [ ("stock", -1) ]);
  let pending4 = pend ~txid:"x" (Update.Delta [ ("stock", -1) ]) :: pending in
  check_eval "5th decrement rejected (paper's t5 example)" Woption.Rejected ~demarcation:esc v
    ~accepted:pending4
    (Update.Delta [ ("stock", -1) ])

let test_escrow_increments_ignore_lower () =
  let v = valuation 0 in
  check_eval "increment always fine for lower bound" Woption.Accepted ~demarcation:esc v
    ~accepted:[]
    (Update.Delta [ ("stock", 5) ]);
  (* An increment does not relax the worst case for pending decrements:
     pending increments might abort. *)
  let pending = [ pend ~txid:"inc" (Update.Delta [ ("stock", 10) ]) ] in
  check_eval "pending increment does not enable decrement" Woption.Rejected ~demarcation:esc v
    ~accepted:pending
    (Update.Delta [ ("stock", -1) ])

let test_quorum_demarcation_limit () =
  (* L = (N - Q_F)/N * X = X/5 with N=5, Q_F=4: from base 10 a single
     acceptor may only go down to 2. *)
  let v = valuation 10 in
  check_eval "down to limit ok" Woption.Accepted ~demarcation:q54 v ~accepted:[]
    (Update.Delta [ ("stock", -8) ]);
  check_eval "below limit rejected even though >= 0" Woption.Rejected ~demarcation:q54 v
    ~accepted:[]
    (Update.Delta [ ("stock", -9) ]);
  (* Escrow (sole decider) would allow -9. *)
  check_eval "escrow allows -9" Woption.Accepted ~demarcation:esc v ~accepted:[]
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
      (Acceptor.evaluate ~bounds ~demarcation:q54 (valuation base) ~pending:Acceptor.none
         (Update.Delta [ ("stock", d) ]))
  in
  check "10 - 8 >= 2" Woption.Accepted 10 (-8);
  check "10 - 9 < 2" Woption.Rejected 10 (-9);
  check "nonzero lower bound shifts limit" Woption.Accepted ~lower:5 15 (-8);
  check "upper symmetric" Woption.Accepted ~upper:100 90 8;
  check "upper violated" Woption.Rejected ~upper:100 90 9

let config = Mdcc_core.Config.make ~replication:5 ()

let now = { Mdcc_sim.Engine.time = 0.0 }

(* An acceptor with no runtime, over a store whose row [key] holds
   [stock] at version 1, under the table's [bounds]. *)
let acceptor ?(bounds = []) stock =
  let store = Store.create (Schema.create [ { Schema.name = "item"; bounds; master_dc = 0 } ]) in
  let row = Store.ensure store key in
  row.Store.value <- Value.of_list [ ("stock", Value.Int stock) ];
  row.Store.version <- 1;
  row.Store.exists <- true;
  (Acceptor.create_node ~config store, store)

(* The record's pending votes, as its Phase 1b reports them. *)
let votes n rs = (Acceptor.promise n rs).Messages.votes

let accepted_votes n rs =
  List.filter (fun (v : Messages.vote) -> v.Messages.decision = Woption.Accepted) (votes n rs)

let test_pending_state_helpers () =
  let n, _ = acceptor 100 in
  let rs = Acceptor.record n key in
  Alcotest.(check bool) "fast era by default" false (Acceptor.in_classic_era rs ~version:0);
  let rs2 = Acceptor.record n (Key.make ~table:"item" ~id:"k2") in
  Acceptor.recovered_window rs2 ~classic_until:5;
  Acceptor.recovered_window rs2 ~classic_until:3;
  Alcotest.(check int) "a window only widens" 5 (Acceptor.classic_until rs2);
  Alcotest.(check bool) "classic below" true (Acceptor.in_classic_era rs2 ~version:4);
  Alcotest.(check bool) "fast at" false (Acceptor.in_classic_era rs2 ~version:5);
  let ballot = Ballot.classic ~number:1 ~proposer:0 in
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

let decrement = Update.Delta [ ("stock", -1) ]

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
  Acceptor.recovered_window rs ~classic_until:3;
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
    (Acceptor.decided rs = [ ("v", false); ("g", true) ]);
  Alcotest.(check bool) "a placeholder's Visibility is unknown" true
    (Acceptor.fast_propose n rs ~now (woption ~txid:"u" (physical ~vread:2)) = Acceptor.Vote None
    && visibility "u" (physical ~vread:(-1)) true = Acceptor.Unknown);
  Alcotest.(check bool) "and keeps the vote" true (Acceptor.mem_pending rs "u");
  Alcotest.(check bool) "and logs nothing" true (Acceptor.outcome n rs "u" = None)

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
      let ballot = Ballot.classic ~number:1 ~proposer:0 in
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
      let demarcation = if quorum then `Quorum (n, qf) else `Escrow in
      Acceptor.evaluate ~bounds ~demarcation (valuation base) ~pending:(chain accepted)
        (Update.Delta [ ("stock", d) ])
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
      let v = valuation base in
      let bounds = [ { Schema.attr = "stock"; lower = Some lower; upper = None } ] in
      (* Feed decrements one at a time through the acceptance rule. *)
      let accepted = ref [] in
      List.iteri
        (fun i d ->
          let up = Update.Delta [ ("stock", -d) ] in
          let dec =
            Acceptor.evaluate ~bounds ~demarcation:q54 v ~pending:(chain !accepted) up
          in
          if dec = Woption.Accepted then
            accepted := pend ~txid:(string_of_int i) up :: !accepted)
        decs;
      let total_accepted =
        List.fold_left
          (fun acc p ->
            acc
            + delta_sum p)
          0 !accepted
      in
      (* All accepted committing leaves the local view at or above L. *)
      5 * (base + total_accepted) >= (5 * lower) + (1 * (base - lower)))

(* Property: escrow never lets the worst case cross the bound. *)
let prop_escrow_safety =
  QCheck.Test.make ~name:"escrow: worst case stays in bounds" ~count:500
    QCheck.(pair (int_range 0 40) (list_of_size Gen.(int_range 0 15) (int_range (-5) 5)))
    (fun (base, deltas) ->
      let v = valuation base in
      let accepted = ref [] in
      List.iteri
        (fun i d ->
          QCheck.assume (d <> 0);
          let up = Update.Delta [ ("stock", d) ] in
          if
            Acceptor.evaluate ~bounds ~demarcation:esc v ~pending:(chain !accepted) up
            = Woption.Accepted
          then accepted := pend ~txid:(string_of_int i) up :: !accepted)
        deltas;
      let neg =
        List.fold_left
          (fun acc p ->
            acc
            + Stdlib.min 0
                (delta_sum p))
          0 !accepted
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
    QCheck_alcotest.to_alcotest prop_demarcation_local_safety;
    QCheck_alcotest.to_alcotest prop_escrow_safety;
    QCheck_alcotest.to_alcotest prop_pending_ops_match_list_model;
    QCheck_alcotest.to_alcotest prop_delta_decision_matches_fold_model;
  ]
