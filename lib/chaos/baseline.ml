(* The comparison protocols (§5.2) through the history checker.

   Quorum writes, 2PC and Megastore* are driven by the same contended
   stock workload the MDCC chaos runs use, with the history recorded at
   the harness boundary: [Submitted] when the client hands the transaction
   to the protocol, [Decided] when the outcome callback fires.  Write-sets
   and outcomes alone are enough for the checker's lost-update and
   serializability invariants; the replica-level invariants (atomic
   visibility, demarcation) need [Applied] events and are vacuous here.

   Quorum writes is the deliberate canary: it blindly applies
   last-writer-wins updates and cannot abort, so under same-instant
   read-modify-write pairs the checker MUST flag lost updates.  A baseline
   run is ok when every violation found was expected for the protocol AND
   every required violation actually fired — a sweep where QW comes back
   clean means the checker lost its teeth, and fails just as loudly as an
   unexpected violation in 2PC or Megastore*. *)

open Mdcc_storage
open Mdcc_core
module Engine = Mdcc_sim.Engine
module Rng = Mdcc_util.Rng
module Harness = Mdcc_protocols.Harness
module Setup = Mdcc_workload.Setup

type proto = {
  p_name : string;
  p_required : string list;
  p_allowed : string list;
  p_protocol : Setup.protocol;
}

let proto_name p = p.p_name

(* QW's blind LWW commits both writers of a same-version pair, so the
   lost-update flag is required.  Downstream symptoms of the same defect
   are allowed but not required (they depend on the seed's interleaving):
   the doomed writers form a write-write/anti-dependency cycle
   (serializability); both writes bump the replica's version, so later
   clients observe versions no single committed writer installed
   (read-committed); and replicas that saw the two writes in different
   delivery orders end divergent (convergence). *)
let protocols =
  [
    {
      p_name = "qw-3";
      p_required = [ "lost-update" ];
      p_allowed = [ "lost-update"; "serializability"; "read-committed"; "convergence" ];
      p_protocol = Setup.Qw 3;
    };
    {
      p_name = "2pc";
      p_required = [];
      p_allowed = [];
      p_protocol = Setup.Two_pc;
    };
    {
      p_name = "megastore";
      p_required = [];
      p_allowed = [];
      p_protocol = Setup.Megastore;
    };
  ]

let protocol_named name = List.find_opt (fun p -> String.equal p.p_name name) protocols

type report = {
  b_protocol : string;
  b_seed : int;
  b_submitted : int;
  b_committed : int;
  b_aborted : int;
  b_undecided : int;
  b_required : string list;
  b_allowed : string list;
  b_violations : Checker.violation list;
}

let invariants_of r =
  List.sort_uniq String.compare (List.map (fun v -> v.Checker.invariant) r.b_violations)

let ok r =
  let got = invariants_of r in
  List.for_all (fun i -> List.mem i got) r.b_required
  && List.for_all (fun i -> List.mem i r.b_allowed) got

let run ?(txns = 40) ?(items = 4) ~seed proto =
  let h = Setup.make proto.p_protocol ~seed ~schema:Runner.stock_schema ~rows:[] () in
  let engine = h.Harness.engine in
  let history = History.create () in
  let submitted = ref 0 and decided = ref [] in
  let submit ~dc txn =
    incr submitted;
    History.record history ~at:(Engine.now engine) ~node:dc (Event.Submitted txn);
    h.Harness.submit ~dc txn (fun outcome ->
        History.record history ~at:(Engine.now engine) ~node:dc
          (Event.Decided { txid = txn.Txn.id; outcome });
        decided := (txn, outcome) :: !decided)
  in
  h.Harness.load (List.init items (fun i -> (Runner.item i, Runner.item_row Runner.stock)));
  let rng = Rng.create ((seed * 31) + 11) in
  let txid = ref 0 in
  let fresh () =
    incr txid;
    Printf.sprintf "%s-%d" proto.p_name !txid
  in
  (* Even items take commutative decrements; odd items take contended
     read-modify-writes submitted in same-instant pairs from two DCs — the
     lost-update crucible: both writers peek the same version before
     either write lands, so a protocol without validation commits both. *)
  let deltas = List.filter (fun i -> i mod 2 = 0) (List.init items Fun.id) in
  let rmws = List.filter (fun i -> i mod 2 = 1) (List.init items Fun.id) in
  let n = ref 0 in
  while !n < txns do
    let at = Rng.float rng Runner.horizon in
    if deltas <> [] && (rmws = [] || Rng.bool rng) then begin
      let i = List.nth deltas (Rng.int rng (List.length deltas)) in
      let dc = Rng.int rng h.Harness.num_dcs in
      let amount = -Rng.int_in rng 1 2 in
      let id = fresh () in
      incr n;
      ignore
        (Engine.schedule_at engine ~at (fun () ->
             submit ~dc
               (Txn.make ~id ~updates:[ (Runner.item i, Update.Delta [ ("stock", amount) ]) ])))
    end
    else begin
      let i = List.nth rmws (Rng.int rng (List.length rmws)) in
      let dc1 = Rng.int rng h.Harness.num_dcs in
      let dc2 = (dc1 + 1 + Rng.int rng (h.Harness.num_dcs - 1)) mod h.Harness.num_dcs in
      let submit_rmw dc id () =
        let vread, value =
          match h.Harness.peek ~dc (Runner.item i) with
          | Some (v, ver) ->
            (ver, Value.set v "stock" (Value.Int (max 0 (Value.get_int v "stock" - 1))))
          | None -> (0, Runner.item_row 0)
        in
        submit ~dc (Txn.make ~id ~updates:[ (Runner.item i, Update.Physical { vread; value }) ])
      in
      let id1 = fresh () and id2 = fresh () in
      n := !n + 2;
      ignore (Engine.schedule_at engine ~at (submit_rmw dc1 id1));
      ignore (Engine.schedule_at engine ~at (submit_rmw dc2 id2))
    end
  done;
  Engine.run ~until:(Runner.horizon +. Runner.drain) engine;
  (* ---- checks: the history, then Runner's post-drain checks ---- *)
  let decided = !decided in
  let violations =
    Checker.check ~bounds:(Schema.bounds_of Runner.stock_schema) history
    @ Runner.post_drain_checks ~peek:h.Harness.peek ~dcs:h.Harness.num_dcs ~items
        ~delta_items:deltas ~stock:Runner.stock ~submitted:!submitted decided
  in
  let committed = List.length (List.filter (fun (_, o) -> o = Txn.Committed) decided) in
  {
    b_protocol = proto.p_name;
    b_seed = seed;
    b_submitted = !submitted;
    b_committed = committed;
    b_aborted = List.length decided - committed;
    b_undecided = !submitted - List.length decided;
    b_required = proto.p_required;
    b_allowed = proto.p_allowed;
    b_violations = violations;
  }

let report_to_string r =
  let verdict =
    if ok r then
      match invariants_of r with
      | [] -> "ok (clean)"
      | got -> Printf.sprintf "ok (expected: %s)" (String.concat "," got)
    else
      Printf.sprintf "UNEXPECTED: found [%s], required [%s], allowed [%s]"
        (String.concat "," (invariants_of r))
        (String.concat "," r.b_required)
        (String.concat "," r.b_allowed)
  in
  let head =
    Printf.sprintf "seed %4d  %-10s  %3d txns: %3d committed %3d aborted %d undecided  %s"
      r.b_seed r.b_protocol r.b_submitted r.b_committed r.b_aborted r.b_undecided verdict
  in
  if ok r then head
  else
    String.concat "\n"
      (head :: List.map (fun v -> "  " ^ Checker.violation_to_string v) r.b_violations)
