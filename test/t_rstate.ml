(* Unit and property tests of the acceptor: the per-record decision logic
   (SetCompatible, the one-outstanding-option rule, quorum demarcation,
   §3.4.2) and its transitions, stepped with no engine or runtime. *)

open Mdcc_storage
module Acceptor = Mdcc_core.Acceptor
module Woption = Mdcc_core.Woption
module Ballot = Mdcc_paxos.Ballot

let key = Key.make ~table:"item" ~id:"k"

let bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ]

let valuation ?(exists = true) ?(version = 1) stock =
  { Acceptor.value = Value.of_list [ ("stock", Value.Int stock) ]; version; exists }

let woption ?(txid = "t") update =
  { Woption.txid; key; update; write_set = [ key ]; coordinator = 99 }

let pend ?(txid = "t") ?(decision = Woption.Accepted) update =
  Acceptor.vote (woption ~txid update) decision Ballot.initial_fast

(* A chain of fresh votes with the list's options, in the list's order. *)
let chain l =
  List.fold_right
    (fun (p : Acceptor.vote) next ->
      Acceptor.vote ~next p.Acceptor.woption p.Acceptor.decision p.Acceptor.ballot)
    l Acceptor.none

let rec to_list (v : Acceptor.vote) = if v == Acceptor.none then [] else v :: to_list v.Acceptor.next

let accepted_votes (rs : Acceptor.t) =
  List.filter
    (fun (v : Acceptor.vote) -> v.Acceptor.decision = Woption.Accepted)
    (to_list rs.Acceptor.pending)

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

let test_demarcation_formulas () =
  (* Exact integer checks of the §3.4.2 limit. *)
  Alcotest.(check bool) "10 - 8 >= 2" true
    (Acceptor.demarcation_lower_ok ~n:5 ~qf:4 ~base:10 ~lower:0 ~pending_neg:0 ~delta_neg:(-8));
  Alcotest.(check bool) "10 - 9 < 2" false
    (Acceptor.demarcation_lower_ok ~n:5 ~qf:4 ~base:10 ~lower:0 ~pending_neg:0 ~delta_neg:(-9));
  Alcotest.(check bool) "nonzero lower bound shifts limit" true
    (Acceptor.demarcation_lower_ok ~n:5 ~qf:4 ~base:15 ~lower:5 ~pending_neg:0 ~delta_neg:(-8));
  Alcotest.(check bool) "upper symmetric" true
    (Acceptor.demarcation_upper_ok ~n:5 ~qf:4 ~base:90 ~upper:100 ~pending_pos:0 ~delta_pos:8);
  Alcotest.(check bool) "upper violated" false
    (Acceptor.demarcation_upper_ok ~n:5 ~qf:4 ~base:90 ~upper:100 ~pending_pos:0 ~delta_pos:9)

let test_pending_state_helpers () =
  let rs = Acceptor.create key and pool = Acceptor.pool () in
  Alcotest.(check bool) "fast era by default" false (Acceptor.in_classic_era rs ~version:0);
  let rs2 = Acceptor.create ~classic_until:5 key in
  Alcotest.(check bool) "classic below" true (Acceptor.in_classic_era rs2 ~version:4);
  Alcotest.(check bool) "fast at" false (Acceptor.in_classic_era rs2 ~version:5);
  let add ?(decision = Woption.Accepted) txid =
    ignore
      (Acceptor.add_pending pool rs (woption ~txid (Update.Delta [ ("stock", -1) ])) decision
         Ballot.initial_fast
        : Acceptor.vote)
  in
  add "a";
  add ~decision:Woption.Rejected "b";
  Alcotest.(check int) "two pending" 2 (List.length (to_list rs.Acceptor.pending));
  Alcotest.(check int) "one accepted" 1 (List.length (accepted_votes rs));
  Alcotest.(check bool) "find" true (Acceptor.mem_pending rs "a");
  (* add_pending replaces same txid *)
  add ~decision:Woption.Rejected "a";
  Alcotest.(check int) "still two" 2 (List.length (to_list rs.Acceptor.pending));
  Alcotest.(check int) "none accepted now" 0 (List.length (accepted_votes rs));
  Acceptor.remove_pending pool rs "a";
  Alcotest.(check int) "one left" 1 (List.length (to_list rs.Acceptor.pending))

(* A Phase 1a promise holds fast votes back until its round proposes,
   stepped on the acceptor alone: no engine, no runtime. *)
let test_promise_holds_fast_votes () =
  let schema = Schema.create [ { Schema.name = "item"; bounds = []; master_dc = 0 } ] in
  let store = Store.create schema in
  let n = Acceptor.create_node ~config:(Mdcc_core.Config.make ~replication:5 ()) store in
  let row = Store.ensure store key in
  row.Store.value <- Value.of_list [ ("stock", Value.Int 100) ];
  row.Store.version <- 1;
  row.Store.exists <- true;
  let rs = Acceptor.record n key and now = { Mdcc_sim.Engine.time = 0.0 } in
  let ballot = Ballot.classic ~number:2 ~proposer:1 and delta = Update.Delta [ ("stock", -1) ] in
  let fast txid = Acceptor.fast_propose n rs ~now (woption ~txid delta) in
  Alcotest.(check bool) "Phase 1a promises (2, 1)" true (Acceptor.phase1a n rs ballot);
  Alcotest.(check bool) "a fast proposal is redirected" true (fast "a" = Acceptor.Redirect);
  Alcotest.(check bool) "the promise stays" true (Ballot.equal rs.Acceptor.promised ballot);
  Alcotest.(check bool) "Phase 2a at (2, 1) votes" true
    (Acceptor.phase2a n rs ~now ballot (woption ~txid:"b" delta) Woption.Accepted ~classic_until:0
       ~rebase:None
    = Acceptor.Voted);
  Alcotest.(check bool) "the next fast proposal votes fast" true (fast "c" = Acceptor.Vote None)

(* One entry of the list model: a txid's vote and the stock delta of its
   option, [0] standing for a physical write. *)
type entry = { m_txid : string; m_decision : Woption.decision; m_delta : int }

let update_of d =
  if d = 0 then Update.Physical { vread = 1; value = Value.empty }
  else Update.Delta [ ("stock", d) ]

(* The decision on a delta of [d] against the model's accepted entries,
   written with list folds: any accepted physical write is outstanding;
   otherwise the worst-case sums must stay within [0, 40] under the
   quorum-demarcation limit. *)
let model_delta_decision entries d =
  let acc = List.filter (fun e -> e.m_decision = Woption.Accepted) entries in
  if List.exists (fun e -> e.m_delta = 0) acc then Woption.Rejected
  else
    let neg = List.fold_left (fun n e -> n + min 0 e.m_delta) 0 acc
    and pos = List.fold_left (fun n e -> n + max 0 e.m_delta) 0 acc in
    if
      Acceptor.demarcation_lower_ok ~n:5 ~qf:4 ~base:20 ~lower:0 ~pending_neg:neg ~delta_neg:(min 0 d)
      && Acceptor.demarcation_upper_ok ~n:5 ~qf:4 ~base:20 ~upper:40 ~pending_pos:pos
           ~delta_pos:(max 0 d)
    then Woption.Accepted
    else Woption.Rejected

(* Property: the pending chains of three records sharing one pool behave
   as the filter-and-append list model of a pending list: arrival order,
   one vote per txid, a re-added txid replaced at the end, a removed one
   gone; [find_pending], [mem_pending] and [pending_count] answer as the
   list would, and a delta's decision — the accepted-only outstanding
   check and the demarcation sums — is the model's.  Release poisons a
   vote with [none]'s option, so every vote ever handed out is either
   live, on exactly one chain, or poisoned and on none: no chain reaches
   a released vote. *)
let prop_pending_ops_match_list_model =
  QCheck.Test.make ~name:"pending ops match the filter/append model" ~count:300
    QCheck.(
      list_of_size
        Gen.(int_range 0 60)
        (quad (int_range 0 3) (int_range 0 2) (int_range 0 4) (pair bool (int_range (-4) 4))))
    (fun ops ->
      let pool = Acceptor.pool () in
      let records =
        Array.init 3 (fun i -> Acceptor.create (Key.make ~table:"item" ~id:(string_of_int i)))
      in
      let models = Array.make 3 [] and seen = ref [] in
      let bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = Some 40 } ] in
      let view (v : Acceptor.vote) =
        {
          m_txid = v.Acceptor.woption.Woption.txid;
          m_decision = v.Acceptor.decision;
          m_delta =
            (match Update.deltas v.Acceptor.woption.Woption.update with [ (_, d) ] -> d | _ -> 0);
        }
      in
      let consistent () =
        let chains = Array.to_list (Array.map (fun rs -> to_list rs.Acceptor.pending) records) in
        let on_chains = List.concat chains in
        let times v = List.length (List.filter (fun u -> u == v) on_chains) in
        let released (v : Acceptor.vote) = v.Acceptor.woption == Acceptor.none.Acceptor.woption in
        List.for_all2 (fun votes model -> List.map view votes = model) chains (Array.to_list models)
        && List.for_all (fun v -> times v = if released v then 0 else 1) !seen
      in
      List.for_all
        (fun (op, r, i, (acc, d)) ->
          let rs = records.(r) and txid = Printf.sprintf "t%d" i in
          let without = List.filter (fun e -> e.m_txid <> txid) models.(r) in
          let step_ok =
            match op with
            | 0 ->
              let decision = if acc then Woption.Accepted else Woption.Rejected in
              let w = woption ~txid (update_of d) in
              let v = Acceptor.add_pending pool rs w decision Ballot.initial_fast in
              if not (List.memq v !seen) then seen := v :: !seen;
              models.(r) <- without @ [ { m_txid = txid; m_decision = decision; m_delta = d } ];
              true
            | 1 ->
              Acceptor.remove_pending pool rs txid;
              models.(r) <- without;
              true
            | 2 ->
              let found =
                match Acceptor.find_pending rs txid with
                | v -> Some (view v)
                | exception Not_found -> None
              in
              found = List.find_opt (fun e -> e.m_txid = txid) models.(r)
              && Acceptor.mem_pending rs txid = (found <> None)
              && Acceptor.pending_count rs = List.length models.(r)
            | _ ->
              let d = if d = 0 then 1 else d in
              Acceptor.evaluate ~bounds ~demarcation:(`Quorum (5, 4)) (valuation 20)
                ~pending:rs.Acceptor.pending (Update.Delta [ ("stock", d) ])
              = model_delta_decision models.(r) d
          in
          step_ok && consistent ())
        ops)

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
          Acceptor.demarcation_lower_ok ~n ~qf ~base ~lower:0 ~pending_neg:neg ~delta_neg:(min 0 d)
          && Acceptor.demarcation_upper_ok ~n ~qf ~base ~upper:40 ~pending_pos:pos
               ~delta_pos:(max 0 d)
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
            + List.fold_left (fun a (_, d) -> a + d) 0 (Update.deltas p.Acceptor.woption.Woption.update))
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
                (List.fold_left (fun a (_, d) -> a + d) 0 (Update.deltas p.Acceptor.woption.Woption.update)))
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
    QCheck_alcotest.to_alcotest prop_demarcation_local_safety;
    QCheck_alcotest.to_alcotest prop_escrow_safety;
    QCheck_alcotest.to_alcotest prop_pending_ops_match_list_model;
    QCheck_alcotest.to_alcotest prop_delta_decision_matches_fold_model;
  ]
