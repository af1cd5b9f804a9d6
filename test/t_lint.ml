(* Tests for the mdcc_lint static-analysis pass.  Fixtures live in
   test/lint_fixtures/; each is scanned under a *pretend* repo-relative path
   so the scope-sensitive rules (R3, R1-simtime) see the directory they key
   on.  Assertions pin exact rule ids and line numbers: a rule that drifts
   off its line is a rule that silently stopped firing. *)

module Driver = Mdcc_lint.Driver
module Finding = Mdcc_lint.Finding
module Allowlist = Mdcc_lint.Allowlist

(* `dune runtest` runs the binary in _build/default/test (where the
   source_tree dep puts lint_fixtures/); `dune exec` runs it from the repo
   root.  Accept either. *)
let fixture_dir =
  if Sys.file_exists "lint_fixtures" then "lint_fixtures"
  else Filename.concat "test" "lint_fixtures"

let source ~rel file = { Driver.src_rel = rel; src_path = Filename.concat fixture_dir file }

let scan ?allow ~rel file = Driver.scan_sources ?allow [ source ~rel file ]

let hits report =
  List.map (fun f -> (f.Finding.rule, f.Finding.line)) report.Driver.rp_findings

let hit = Alcotest.(pair string int)

let test_r1_determinism () =
  let r = scan ~rel:"lib/core/r1_determinism.ml" "r1_determinism.ml" in
  (* The wall-clock reads are double-flagged since R6: they are both a
     determinism leak (R1) and a direct OS effect in the core (R6). *)
  Alcotest.(check (list hit))
    "r1 rule ids and lines"
    [
      ("R1-random", 3);
      ("R1-wallclock", 5);
      ("R6-sys", 5);
      ("R1-wallclock", 7);
      ("R6-unix", 7);
      ("R1-hash-iter", 9);
      ("R1-hash-iter", 11);
      ("R1-hash-iter", 13);
      ("R1-simtime", 15);
    ]
    (hits r);
  let idents = List.map (fun f -> f.Finding.ident) r.Driver.rp_findings in
  Alcotest.(check (list string))
    "r1 offending idents"
    [
      "Random.int";
      "Sys.time";
      "Sys.time";
      "Unix.gettimeofday";
      "Unix.gettimeofday";
      "Hashtbl.iter";
      "Hashtbl.fold";
      "Key.Tbl.to_seq";
      "proposed_at";
    ]
    idents

let test_r1_simtime_scope () =
  (* Outside lib/core, lib/paxos, lib/chaos the bare-float timestamp rule is
     silent; the location-independent R1 rules still fire. *)
  let r = scan ~rel:"lib/workload/r1_determinism.ml" "r1_determinism.ml" in
  Alcotest.(check bool)
    "no simtime finding outside scope" false
    (List.exists (fun f -> String.equal f.Finding.rule "R1-simtime") r.Driver.rp_findings);
  Alcotest.(check int) "other R1 rules still fire" 6 (List.length r.Driver.rp_findings)

let test_r2_aliasing () =
  let r = scan ~rel:"lib/core/r2_aliasing.ml" "r2_aliasing.ml" in
  Alcotest.(check (list hit))
    "r2 rule ids and lines"
    [ ("R2-payload", 9); ("R2-payload", 11); ("R2-send", 15) ]
    (hits r);
  (* The nested finding must name the full reachability trail through
     wrapper -> cache -> mutable field. *)
  let nested = List.nth r.Driver.rp_findings 1 in
  Alcotest.(check string) "nested ctor" "Evil_nested" nested.Finding.ident;
  Alcotest.(check bool) "trail mentions the mutable field" true
    (let msg = nested.Finding.message in
     let contains ~sub s =
       let n = String.length sub in
       let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
       n = 0 || go 0
     in
     contains ~sub:"mutable field hits" msg)

let test_r2_send_reach () =
  let r = scan ~rel:"lib/core/r2_send.ml" "r2_send.ml" in
  Alcotest.(check (list hit))
    "r2-send rule ids and lines"
    [ ("R2-send", 4); ("R2-send", 6); ("R2-send", 8) ]
    (hits r);
  Alcotest.(check (list string))
    "r2-send allocations"
    [ "Key.Tbl.create"; "Array.make"; "Atomic.make" ]
    (List.map (fun f -> f.Finding.ident) r.Driver.rp_findings)

let test_r3_partiality () =
  let r = scan ~rel:"lib/core/r3_partiality.ml" "r3_partiality.ml" in
  Alcotest.(check (list hit))
    "r3 rule ids and lines"
    [
      ("R3-failwith", 3);
      ("R3-invalid-arg", 5);
      ("R3-assert-false", 7);
      ("R3-option-get", 9);
      ("R3-list-hd", 11);
    ]
    (hits r)

let test_r3_scope () =
  (* The same file outside lib/core and lib/paxos is not R3's business. *)
  let r = scan ~rel:"lib/sim/r3_partiality.ml" "r3_partiality.ml" in
  Alcotest.(check (list hit)) "no findings outside scope" [] (hits r)

let test_r4_ambient () =
  let r = scan ~rel:"lib/sim/r4_ambient.ml" "r4_ambient.ml" in
  Alcotest.(check (list hit))
    "r4 rule ids and lines"
    [
      ("R4-ambient", 4);
      ("R4-ambient", 6);
      ("R4-ambient", 8);
      ("R4-ambient", 10);
      ("R4-ambient", 13);
    ]
    (hits r);
  let idents = List.map (fun f -> f.Finding.ident) r.Driver.rp_findings in
  Alcotest.(check (list string))
    "r4 offending constructs"
    [ "ref"; "Hashtbl.create"; "Buffer.create"; "Array.make"; "ref" ]
    idents

let test_r4_scope () =
  (* Executables own their process: top-level state in bin/ is fine. *)
  let r = scan ~rel:"bin/r4_ambient.ml" "r4_ambient.ml" in
  Alcotest.(check (list hit)) "no findings outside lib/" [] (hits r)

let test_clean () =
  let r = scan ~rel:"lib/core/clean.ml" "clean.ml" in
  Alcotest.(check (list hit)) "clean file has no findings" [] (hits r);
  Alcotest.(check int) "one file scanned" 1 r.Driver.rp_scanned

let test_allowlist () =
  let rel = "lib/util/allowlisted.ml" in
  let bare = scan ~rel "allowlisted.ml" in
  Alcotest.(check (list hit)) "finding without allowlist" [ ("R1-hash-iter", 3) ] (hits bare);
  let allow = Allowlist.of_string "# test entry\nR1 lib/util/allowlisted.ml\n" in
  let r = scan ~allow ~rel "allowlisted.ml" in
  Alcotest.(check (list hit)) "suppressed by family entry" [] (hits r);
  Alcotest.(check int) "recorded as allowlisted" 1 (List.length r.Driver.rp_suppressed);
  (* A pinned line that does not match must not suppress. *)
  let wrong_line = Allowlist.of_string "R1-hash-iter lib/util/allowlisted.ml:99\n" in
  let r = scan ~allow:wrong_line ~rel "allowlisted.ml" in
  Alcotest.(check (list hit)) "wrong line does not suppress" [ ("R1-hash-iter", 3) ] (hits r)

(* A trailing-slash entry (as lint_allow.conf carries for lib/runtime_unix/)
   is a *directory* allowance: it must suppress for every file under that
   directory and for nothing else — not for the same file name in another
   tree, and not for a sibling path sharing the directory name as a string
   prefix.  This is what keeps the socket runtime's wall-clock allowance
   from silently turning R1 off repo-wide. *)
let test_allowlist_dir_scope () =
  let allow = Allowlist.of_string "# socket runtime may touch the wall clock\nR1 lib/runtime_unix/\n" in
  let inside = scan ~allow ~rel:"lib/runtime_unix/loop.ml" "allowlisted.ml" in
  Alcotest.(check (list hit)) "suppressed under the directory" [] (hits inside);
  Alcotest.(check int) "recorded as allowlisted" 1 (List.length inside.Driver.rp_suppressed);
  let nested = scan ~allow ~rel:"lib/runtime_unix/sub/deep.ml" "allowlisted.ml" in
  Alcotest.(check (list hit)) "suppressed in subdirectories too" [] (hits nested);
  let outside = scan ~allow ~rel:"lib/core/loop.ml" "allowlisted.ml" in
  Alcotest.(check (list hit)) "still fires outside the directory" [ ("R1-hash-iter", 3) ]
    (hits outside);
  let prefix_sibling = scan ~allow ~rel:"lib/runtime_unix_extras.ml" "allowlisted.ml" in
  Alcotest.(check (list hit)) "prefix-sharing sibling is not covered"
    [ ("R1-hash-iter", 3) ] (hits prefix_sibling);
  (* the directory entry suppresses only its family: R4 in the same
     directory keeps firing *)
  let r4 = scan ~allow ~rel:"lib/runtime_unix/r4_ambient.ml" "r4_ambient.ml" in
  Alcotest.(check bool) "other families unaffected by the R1 entry" true
    (List.exists (fun f -> String.length f.Finding.rule >= 2 && String.sub f.Finding.rule 0 2 = "R4") r4.Driver.rp_findings)

(* ------------------------------------------------------------------ *)
(* R5 — domain safety                                                  *)
(* ------------------------------------------------------------------ *)

let test_r5_domain () =
  let r = scan ~rel:"lib/workload/r5_domain.ml" "r5_domain.ml" in
  Alcotest.(check (list hit))
    "r5 rule ids and lines"
    [ ("R5-capture", 4); ("R5-mutate", 8); ("R5-mutate", 11); ("R5-mutate", 19) ]
    (hits r);
  let idents = List.map (fun f -> f.Finding.ident) r.Driver.rp_findings in
  Alcotest.(check (list string))
    "r5 captured variables" [ "hits"; "total"; "row"; "acc" ] idents

let test_r5_ok () =
  (* Atomics, task-local allocation, mutex-guarded closures, immutable
     captures, and non-spawner iteration are all silent. *)
  let r = scan ~rel:"lib/workload/r5_domain_ok.ml" "r5_domain_ok.ml" in
  Alcotest.(check (list hit)) "no findings" [] (hits r)

let test_r5_by_name () =
  (* A function passed by name is analysed where it is defined: the
     mutation sits in its body, not at the spawn site. *)
  let r = scan ~rel:"lib/workload/r5_by_name.ml" "r5_by_name.ml" in
  Alcotest.(check (list hit))
    "r5 by-name rule ids and lines" [ ("R5-mutate", 5); ("R5-mutate", 10) ] (hits r);
  Alcotest.(check (list string))
    "r5 by-name captured variables" [ "seen"; "slots" ]
    (List.map (fun f -> f.Finding.ident) r.Driver.rp_findings)

let test_r5_by_name_ok () =
  let r = scan ~rel:"lib/workload/r5_by_name_ok.ml" "r5_by_name_ok.ml" in
  Alcotest.(check (list hit)) "no findings" [] (hits r)

(* ------------------------------------------------------------------ *)
(* R6 — runtime purity                                                 *)
(* ------------------------------------------------------------------ *)

let test_r6_purity () =
  let r = scan ~rel:"lib/core/r6_purity.ml" "r6_purity.ml" in
  Alcotest.(check (list hit))
    "r6 rule ids and lines"
    [
      ("R6-unix", 2);
      ("R6-sys", 4);
      ("R6-channel", 6);
      ("R6-print", 8);
      ("R6-channel", 10);
      ("R6-channel", 10);
      ("R6-exit", 12);
    ]
    (hits r);
  (* The file defines its own [flush]; the call on the last line must not
     read as Stdlib.flush.  Its absence from the list above pins that. *)
  let idents = List.map (fun f -> f.Finding.ident) r.Driver.rp_findings in
  Alcotest.(check (list string))
    "r6 offending idents"
    [
      "Unix.getenv";
      "Sys.argv";
      "print_endline";
      "Printf.printf";
      "In_channel.with_open_text";
      "In_channel.input_all";
      "exit";
    ]
    idents

let test_r6_scope () =
  (* The same effects outside the five core directories are not R6's
     business (bin/ and lib/runtime_unix own their process). *)
  let r = scan ~rel:"lib/workload/r6_purity.ml" "r6_purity.ml" in
  Alcotest.(check (list hit)) "no findings outside scope" [] (hits r)

let test_r6_ok () =
  let r = scan ~rel:"lib/core/r6_purity_ok.ml" "r6_purity_ok.ml" in
  Alcotest.(check (list hit)) "sprintf/asprintf/constants are pure" [] (hits r)

(* R6-runtime: the acceptor, the leader and a transaction's decision reach no runtime,
   outbox, context, counter or event, constructors included; the same file
   elsewhere in lib/core is R6-runtime's business no more. *)
let test_r6_runtime () =
  let r = scan ~rel:"lib/core/acceptor.ml" "r6_runtime.ml" in
  Alcotest.(check (list hit))
    "r6-runtime rule ids and lines"
    [ ("R6-runtime", 2); ("R6-runtime", 4); ("R6-runtime", 6); ("R6-runtime", 8);
      ("R6-runtime", 8); ("R6-runtime", 10) ]
    (hits r);
  Alcotest.(check (list string))
    "r6-runtime offending idents"
    [ "Runtime.now_into"; "Outbox.send"; "Mdcc_obs.Obs.incr"; "Ctx.live"; "Ctx.emit";
      "Event.Voided" ]
    (List.map (fun f -> f.Finding.ident) r.Driver.rp_findings);
  Alcotest.(check (list hit))
    "the same findings in a transaction's decision" (hits r)
    (hits (scan ~rel:"lib/core/txn_decision.ml" "r6_runtime.ml"));
  Alcotest.(check (list hit))
    "the same findings in the leader" (hits r)
    (hits (scan ~rel:"lib/core/leader.ml" "r6_runtime.ml"));
  let elsewhere = scan ~rel:"lib/core/storage_node.ml" "r6_runtime.ml" in
  Alcotest.(check (list hit)) "no findings outside the step modules" [] (hits elsewhere);
  let ok = scan ~rel:"lib/core/acceptor.ml" "r6_runtime_ok.ml" in
  Alcotest.(check (list hit)) "verdicts and a filled clock cell are pure" [] (hits ok)

(* The lib/obs carve-out: the observability layer is inside R6's scope (a
   stray wall-clock read there would leak into byte-pinned exports), with
   exactly one sanctioned escape — Obs.Clock, covered by file-scoped R1/R6
   allowlist entries mirroring lint_allow.conf.  A bare [Unix.gettimeofday]
   in any *other* lib/obs file must keep failing both rules. *)
let test_r6_obs_scope () =
  let r = scan ~rel:"lib/obs/prof.ml" "r1_determinism.ml" in
  Alcotest.(check (list hit))
    "bare wall-clock reads in lib/obs fail R1 and R6"
    [
      ("R1-random", 3);
      ("R1-wallclock", 5);
      ("R6-sys", 5);
      ("R1-wallclock", 7);
      ("R6-unix", 7);
      ("R1-hash-iter", 9);
      ("R1-hash-iter", 11);
      ("R1-hash-iter", 13);
    ]
    (hits r)

let test_r6_obs_clock_allow () =
  let allow = Allowlist.of_string "R1 lib/obs/clock.ml\nR6 lib/obs/clock.ml\n" in
  let clock = scan ~allow ~rel:"lib/obs/clock.ml" "r1_determinism.ml" in
  Alcotest.(check (list hit)) "clock.ml is fully covered by the two entries" [] (hits clock);
  Alcotest.(check bool) "suppressions recorded (entries are not stale)" true
    (List.length clock.Driver.rp_suppressed > 0);
  (* The allowance is file-scoped: a sibling in lib/obs gets no cover. *)
  let sibling = scan ~allow ~rel:"lib/obs/registry.ml" "r1_determinism.ml" in
  Alcotest.(check bool) "sibling still fails R6-unix" true
    (List.exists (fun f -> String.equal f.Finding.rule "R6-unix") sibling.Driver.rp_findings);
  Alcotest.(check bool) "sibling still fails R1-wallclock" true
    (List.exists
       (fun f -> String.equal f.Finding.rule "R1-wallclock")
       sibling.Driver.rp_findings)

(* ------------------------------------------------------------------ *)
(* R7 — protocol exhaustiveness                                        *)
(* ------------------------------------------------------------------ *)

let test_r7_exhaustive () =
  let r = scan ~rel:"lib/core/r7_exhaustive.ml" "r7_exhaustive.ml" in
  Alcotest.(check (list hit)) "r7 rule id and line" [ ("R7-unhandled", 7) ] (hits r);
  let f = List.hd r.Driver.rp_findings in
  Alcotest.(check string) "family named" "R7_exhaustive" f.Finding.ident;
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
    n = 0 || go 0
  in
  Alcotest.(check bool) "missing constructors listed" true
    (contains ~sub:"Pong, Quit" f.Finding.message)

let test_r7_ok () =
  (* Naming every own constructor before the (extensible-variant-mandated)
     wildcard is fine; so is delegating the wildcard to another handler. *)
  let r = scan ~rel:"lib/core/r7_exhaustive_ok.ml" "r7_exhaustive_ok.ml" in
  Alcotest.(check (list hit)) "no findings" [] (hits r)

let test_r7_cross_file () =
  (* The family is declared in r7_exhaustive.ml; the receiver lives in a
     different file and names constructors with the module qualifier.  The
     link phase must carry the constructor set across. *)
  let r =
    Driver.scan_sources
      [
        source ~rel:"lib/core/r7_exhaustive.ml" "r7_exhaustive.ml";
        source ~rel:"lib/paxos/r7_receiver.ml" "r7_receiver.ml";
      ]
  in
  Alcotest.(check (list hit))
    "declaring file and foreign receiver both flagged"
    [ ("R7-unhandled", 7); ("R7-unhandled", 6) ]
    (hits r);
  let files = List.map (fun f -> f.Finding.file) r.Driver.rp_findings in
  Alcotest.(check (list string))
    "cross-file finding lands in the receiver"
    [ "lib/core/r7_exhaustive.ml"; "lib/paxos/r7_receiver.ml" ]
    files

let test_r7_scope () =
  let r =
    Driver.scan_sources
      [
        source ~rel:"lib/workload/r7_exhaustive.ml" "r7_exhaustive.ml";
        source ~rel:"lib/workload/r7_receiver.ml" "r7_receiver.ml";
      ]
  in
  Alcotest.(check (list hit)) "no findings outside scope" [] (hits r)

(* ------------------------------------------------------------------ *)
(* Allowlist normalisation and staleness                               *)
(* ------------------------------------------------------------------ *)

let test_allowlist_normalisation () =
  (* A directory entry needs no trailing slash: "lib/runtime_unix" and
     "lib/runtime_unix/" are the same scope, and neither leaks onto a
     sibling sharing the name as a string prefix. *)
  let no_slash = Allowlist.of_string "R1 lib/runtime_unix\n" in
  let with_slash = Allowlist.of_string "R1 ./lib/runtime_unix/\n" in
  List.iter
    (fun allow ->
      let inside = scan ~allow ~rel:"lib/runtime_unix/loop.ml" "allowlisted.ml" in
      Alcotest.(check (list hit)) "suppressed under the directory" [] (hits inside);
      let sibling = scan ~allow ~rel:"lib/runtime_unix_extras.ml" "allowlisted.ml" in
      Alcotest.(check (list hit)) "prefix sibling still fires"
        [ ("R1-hash-iter", 3) ] (hits sibling))
    [ no_slash; with_slash ]

let test_allowlist_stale () =
  let allow =
    Allowlist.of_string
      "R1 lib/util/allowlisted.ml\nR4 lib/never/matches.ml\nR1 lib/util/allowlisted.ml:99\n"
  in
  let r = scan ~allow ~rel:"lib/util/allowlisted.ml" "allowlisted.ml" in
  let everything = r.Driver.rp_findings @ r.Driver.rp_suppressed in
  let stale = Allowlist.unused allow everything in
  Alcotest.(check (list string))
    "entries that suppress nothing are reported stale"
    [ "R4 lib/never/matches.ml"; "R1 lib/util/allowlisted.ml:99" ]
    (List.map Allowlist.entry_to_string stale)

(* The repository itself, as the @lint alias scans it.  Besides "no
   unsuppressed finding", the suppressed (rule, file, ident) multiset is
   pinned without lines or columns: a family entry such as
   [R1 lib/runtime_unix] keeps --check-allow quiet while it matches any one
   detection, so only this pin notices a change that drops another. *)
let test_whole_tree () =
  let root = if Sys.file_exists "lint_fixtures" then Filename.parent_dir_name else "." in
  let cwd = Sys.getcwd () in
  let r =
    Fun.protect
      ~finally:(fun () -> Sys.chdir cwd)
      (fun () ->
        Sys.chdir root;
        Driver.scan ~allow:(Allowlist.load "lint_allow.conf") [ "lib"; "bin" ])
  in
  Alcotest.(check (list string))
    "no unsuppressed finding" []
    (List.map Finding.to_string r.Driver.rp_findings);
  Alcotest.(check (list (triple string string string)))
    "suppressed findings"
    [
      ("R1-hash-iter", "lib/util/table.ml", "Hashtbl.fold");
      ("R1-wallclock", "lib/obs/clock.ml", "Unix.gettimeofday");
      ("R1-wallclock", "lib/runtime_unix/loop.ml", "Unix.gettimeofday");
      ("R1-wallclock", "lib/runtime_unix/loop.ml", "Unix.gettimeofday");
      ("R2-payload", "lib/core/messages.ml", "Batch");
      ("R5-mutate", "lib/util/pool.ml", "slots");
      ("R6-unix", "lib/obs/clock.ml", "Unix.gettimeofday");
    ]
    (List.sort compare
       (List.map
          (fun f -> (f.Finding.rule, f.Finding.file, f.Finding.ident))
          r.Driver.rp_suppressed))

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

let all_fixtures =
  [
    source ~rel:"lib/core/r1_determinism.ml" "r1_determinism.ml";
    source ~rel:"lib/core/r2_aliasing.ml" "r2_aliasing.ml";
    source ~rel:"lib/core/r3_partiality.ml" "r3_partiality.ml";
    source ~rel:"lib/sim/r4_ambient.ml" "r4_ambient.ml";
    source ~rel:"lib/workload/r5_domain.ml" "r5_domain.ml";
    source ~rel:"lib/workload/r5_domain_ok.ml" "r5_domain_ok.ml";
    source ~rel:"lib/workload/r5_by_name.ml" "r5_by_name.ml";
    source ~rel:"lib/workload/r5_by_name_ok.ml" "r5_by_name_ok.ml";
    source ~rel:"lib/core/r6_purity.ml" "r6_purity.ml";
    source ~rel:"lib/core/r6_purity_ok.ml" "r6_purity_ok.ml";
    source ~rel:"lib/core/r7_exhaustive.ml" "r7_exhaustive.ml";
    source ~rel:"lib/core/r7_exhaustive_ok.ml" "r7_exhaustive_ok.ml";
    source ~rel:"lib/paxos/r7_receiver.ml" "r7_receiver.ml";
    source ~rel:"lib/core/clean.ml" "clean.ml";
    source ~rel:"lib/util/allowlisted.ml" "allowlisted.ml";
  ]

let test_json_determinism () =
  let render () = Driver.report_to_json (Driver.scan_sources all_fixtures) in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical reports" a b;
  Alcotest.(check bool) "report is non-trivial" true (String.length a > 100)

let test_sarif_shape () =
  let allow = Allowlist.of_string "R1 lib/util/allowlisted.ml\n" in
  let r = Driver.scan_sources ~allow all_fixtures in
  let doc = Driver.report_to_sarif r in
  let contains ~sub s =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.equal (String.sub s i n) sub || go (i + 1)) in
    n = 0 || go 0
  in
  List.iter
    (fun sub -> Alcotest.(check bool) (Printf.sprintf "SARIF contains %S" sub) true (contains ~sub doc))
    [
      "\"version\":\"2.1.0\"";
      "\"name\":\"mdcc_lint\"";
      "\"ruleId\":\"R5-capture\"";
      "\"ruleId\":\"R6-exit\"";
      "\"ruleId\":\"R7-unhandled\"";
      (* the allowlisted R1 finding rides along, suppressed *)
      "\"suppressions\":[{\"kind\":\"external\"}]";
    ];
  Alcotest.(check bool) "single line" false (String.contains doc '\n')

let suite =
  [
    Alcotest.test_case "R1 determinism fixture" `Quick test_r1_determinism;
    Alcotest.test_case "R1-simtime scope" `Quick test_r1_simtime_scope;
    Alcotest.test_case "R2 aliasing fixture" `Quick test_r2_aliasing;
    Alcotest.test_case "R2-send allocation reach" `Quick test_r2_send_reach;
    Alcotest.test_case "R3 partiality fixture" `Quick test_r3_partiality;
    Alcotest.test_case "R3 scope" `Quick test_r3_scope;
    Alcotest.test_case "R4 ambient-state fixture" `Quick test_r4_ambient;
    Alcotest.test_case "R4 scope" `Quick test_r4_scope;
    Alcotest.test_case "clean fixture" `Quick test_clean;
    Alcotest.test_case "R5 domain-safety fixture" `Quick test_r5_domain;
    Alcotest.test_case "R5 negative fixture" `Quick test_r5_ok;
    Alcotest.test_case "R5 function passed by name" `Quick test_r5_by_name;
    Alcotest.test_case "R5 by-name negative fixture" `Quick test_r5_by_name_ok;
    Alcotest.test_case "R6 purity fixture" `Quick test_r6_purity;
    Alcotest.test_case "R6 scope" `Quick test_r6_scope;
    Alcotest.test_case "R6 negative fixture" `Quick test_r6_ok;
    Alcotest.test_case "R6 lib/obs scope" `Quick test_r6_obs_scope;
    Alcotest.test_case "R6 Obs.Clock carve-out" `Quick test_r6_obs_clock_allow;
    Alcotest.test_case "R6-runtime acceptor purity" `Quick test_r6_runtime;
    Alcotest.test_case "R7 exhaustiveness fixture" `Quick test_r7_exhaustive;
    Alcotest.test_case "R7 negative fixture" `Quick test_r7_ok;
    Alcotest.test_case "R7 cross-file link" `Quick test_r7_cross_file;
    Alcotest.test_case "R7 scope" `Quick test_r7_scope;
    Alcotest.test_case "allowlist suppression" `Quick test_allowlist;
    Alcotest.test_case "allowlist directory scoping" `Quick test_allowlist_dir_scope;
    Alcotest.test_case "allowlist path normalisation" `Quick test_allowlist_normalisation;
    Alcotest.test_case "allowlist stale-entry detection" `Quick test_allowlist_stale;
    Alcotest.test_case "whole tree under lint_allow.conf" `Quick test_whole_tree;
    Alcotest.test_case "report JSON determinism" `Quick test_json_determinism;
    Alcotest.test_case "SARIF report shape" `Quick test_sarif_shape;
  ]
