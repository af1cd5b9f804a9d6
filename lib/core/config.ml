type mode = Full | Multi

type t = {
  mode : mode;
  replication : int;
  gamma : int;
  learn_timeout : float;
  txn_timeout : float;
  dangling_scan_every : float;
  fast_quorum_override : int option;
}

let make ?(mode = Full) ?(gamma = 100) ?(learn_timeout = 1200.0) ?(txn_timeout = 5000.0)
    ?(dangling_scan_every = 1000.0) ?fast_quorum_override ~replication () =
  let module Invariant = Mdcc_util.Invariant in
  if replication < 3 then
    Invariant.violate ~context:"Config.make" "replication must be >= 3, got %d" replication;
  (match fast_quorum_override with
  | Some q when q < 1 || q > replication ->
    Invariant.violate ~context:"Config.make" "fast_quorum_override %d out of range [1, %d]" q
      replication
  | Some _ | None -> ());
  { mode; replication; gamma; learn_timeout; txn_timeout; dangling_scan_every;
    fast_quorum_override }

let classic_quorum t = Mdcc_paxos.Quorum.classic_size ~n:t.replication

let fast_quorum t =
  match t.fast_quorum_override with
  | Some q -> q
  | None -> Mdcc_paxos.Quorum.fast_size ~n:t.replication

let mode_name = function Full -> "MDCC" | Multi -> "Multi"
