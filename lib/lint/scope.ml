(* Paths and the one table saying where each rule applies. *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let norm_rel rel =
  let rel = if starts_with ~prefix:"./" rel then String.sub rel 2 (String.length rel - 2) else rel in
  String.map (fun c -> if c = '\\' then '/' else c) rel

let module_name rel = String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

let protocol_core = [ "lib/core/"; "lib/paxos/" ]

(* Keyed by rule id or family; a rule id entry beats its family's. *)
let table =
  [
    (* Timestamps feed replay and checking. *)
    ("R1-simtime", protocol_core @ [ "lib/chaos/" ]);
    (* Where an anonymous failure can kill a protocol step — including the
       shared utility layer, whose bare [invalid_arg] would surface as an
       anonymous crash in whatever protocol path called it. *)
    ("R3", protocol_core @ [ "lib/util/" ]);
    (* Worker domains assume every library module is either pure or routes
       its ambient state through Domain.DLS; executables own their process. *)
    ("R4", [ "lib/" ]);
    (* The deterministic core, plus lib/obs, which runs inside the sweeps. *)
    ("R6", protocol_core @ [ "lib/obs/"; "lib/protocols/"; "lib/storage/"; "lib/wire/" ]);
    (* The acceptor, the leader and a transaction's decision step without
       a runtime: their drivers send, count and emit. *)
    ("R6-runtime", [ "lib/core/acceptor.ml"; "lib/core/leader.ml"; "lib/core/txn_decision.ml" ]);
    (* The receivers whose silent drops would stall the commit protocol;
       lib/chaos matches payloads partially on purpose. *)
    ("R7", protocol_core @ [ "lib/protocols/" ]);
  ]

let applies ~rule rel =
  let scoped =
    match List.assoc_opt rule table with
    | None -> List.assoc_opt (Finding.family rule) table
    | exact -> exact
  in
  match scoped with
  | None -> true
  | Some prefixes -> List.exists (fun prefix -> starts_with ~prefix rel) prefixes
