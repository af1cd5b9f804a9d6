(* SARIF 2.1.0 exporter.

   One run, one driver ("mdcc_lint"), one result per finding.  Suppressed
   (allowlisted) findings are emitted too, carrying a non-empty
   [suppressions] array — SARIF consumers (GitHub code scanning included)
   hide them but keep the escape surface auditable, mirroring what the
   in-house JSON report does with its "allowlisted" array.

   The document is a Mdcc_obs.Json tree: the rules array lists the rule
   ids that actually occur (sorted), results are sorted by
   Finding.compare, and nothing depends on ambient state — the document is
   byte-identical across runs. *)

(* Static metadata for the known rule ids; unknown ids fall back to their
   family so a new rule is never unrepresentable. *)
let rule_help rule =
  match rule with
  | "R1-random" -> "Nondeterministic PRNG; use the seeded Mdcc_util.Rng."
  | "R1-wallclock" -> "Wall-clock read; use the runtime clock (Engine.now / Runtime.now)."
  | "R1-hash-iter" -> "Hash-order iteration; use the sorted_* helpers."
  | "R1-simtime" -> "Timestamp field typed bare float; use Engine.sim_time."
  | "R2-payload" -> "Message payload can reach mutable state; payloads must be deep-immutable."
  | "R2-send" -> "Mutable value constructed at a network send site."
  | "R3-failwith" | "R3-invalid-arg" | "R3-assert-false" | "R3-option-get" | "R3-list-hd" ->
    "Anonymous partiality in a protocol path; use Mdcc_util.Invariant.violate."
  | "R4-ambient" -> "Top-level mutable state is shared across worker domains."
  | "R5-capture" -> "Task closure captures a mutable local; it races across domains."
  | "R5-mutate" -> "Task closure mutates a captured variable; it races across domains."
  | "R6-unix" | "R6-sys" | "R6-channel" | "R6-print" | "R6-exit" ->
    "Direct OS/channel effect in the deterministic core; route it through Runtime.t."
  | "R6-runtime" ->
    "Runtime, send, count or emit in a step module; answer a verdict instead."
  | "R7-unhandled" ->
    "Payload dispatch wildcard silently drops constructors of its own message family."
  | r -> Printf.sprintf "mdcc_lint rule family %s." (Finding.family r)

open Mdcc_obs.Json

let result ~rule_index ~suppressed (f : Finding.t) =
  let location =
    Obj
      [
        ( "physicalLocation",
          Obj
            [
              ("artifactLocation", Obj [ ("uri", Str f.file); ("uriBaseId", Str "SRCROOT") ]);
              ("region", Obj [ ("startLine", Int f.line); ("startColumn", Int (f.col + 1)) ]);
            ] );
      ]
  in
  Obj
    ([
       ("ruleId", Str f.rule);
       ("ruleIndex", Int rule_index);
       ("level", Str "error");
       ("message", Obj [ ("text", Str (Printf.sprintf "%s (%s)" f.message f.ident)) ]);
       ("locations", List [ location ]);
     ]
    @ if suppressed then [ ("suppressions", List [ Obj [ ("kind", Str "external") ] ]) ] else [])

let render ~findings ~suppressed =
  let tagged =
    List.map (fun f -> (f, false)) findings
    @ List.map (fun f -> (f, true)) suppressed
  in
  let tagged = List.sort (fun (a, _) (b, _) -> Finding.compare a b) tagged in
  let rule_ids =
    List.sort_uniq String.compare (List.map (fun ((f : Finding.t), _) -> f.rule) tagged)
  in
  let index_of rule =
    let rec go i = function
      | [] -> 0
      | r :: _ when String.equal r rule -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 rule_ids
  in
  let rule id =
    Obj
      [
        ("id", Str id);
        ("shortDescription", Obj [ ("text", Str (rule_help id)) ]);
        ("defaultConfiguration", Obj [ ("level", Str "error") ]);
      ]
  in
  let driver =
    Obj
      [
        ("name", Str "mdcc_lint");
        ("version", Str "2.0.0");
        ("informationUri", Str "https://github.com/mdcc/mdcc/blob/main/docs/LINT.md");
        ("rules", List (List.map rule rule_ids));
      ]
  in
  let run =
    Obj
      [
        ("tool", Obj [ ("driver", driver) ]);
        ("columnKind", Str "utf16CodeUnits");
        ("originalUriBaseIds", Obj [ ("SRCROOT", Obj [ ("uri", Str "file:///./") ]) ]);
        ( "results",
          List
            (List.map
               (fun ((f : Finding.t), supp) ->
                 result ~rule_index:(index_of f.rule) ~suppressed:supp f)
               tagged) );
      ]
  in
  to_string
    (Obj
       [
         ("version", Str "2.1.0");
         ("$schema", Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("runs", List [ run ]);
       ])
