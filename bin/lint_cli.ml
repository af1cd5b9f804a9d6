(* mdcc_lint command-line driver.

   Exit codes: 0 clean, 1 unsuppressed findings or stale allowlist entries,
   2 parse/usage error. *)

module Driver = Mdcc_lint.Driver
module Finding = Mdcc_lint.Finding
module Allowlist = Mdcc_lint.Allowlist

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let run allow_file json sarif_file check_allow roots =
  let allow =
    match allow_file with
    | None -> []
    | Some path -> Allowlist.load path
  in
  match Driver.scan ~allow roots with
  | exception Driver.Parse_error { file; message } ->
    Printf.eprintf "lint: cannot parse %s: %s\n" file message;
    exit 2
  | exception Failure msg ->
    Printf.eprintf "lint: %s\n" msg;
    exit 2
  | report ->
    Option.iter
      (fun path -> write_file path (Driver.report_to_sarif report))
      sarif_file;
    if json then print_endline (Driver.report_to_json report)
    else begin
      List.iter (fun f -> print_endline (Finding.to_string f)) report.Driver.rp_findings;
      Printf.printf "lint: %d file(s) scanned, %d violation(s), %d allowlisted\n"
        report.Driver.rp_scanned
        (List.length report.Driver.rp_findings)
        (List.length report.Driver.rp_suppressed)
    end;
    let stale =
      if check_allow then
        Allowlist.unused allow (report.Driver.rp_findings @ report.Driver.rp_suppressed)
      else []
    in
    List.iter
      (fun e ->
        Printf.eprintf "lint: stale allowlist entry (suppresses nothing): %s\n"
          (Allowlist.entry_to_string e))
      stale;
    if report.Driver.rp_findings <> [] || stale <> [] then exit 1

open Cmdliner

let allow_arg =
  let doc = "Allowlist file (RULE PATH[:LINE] per line, # comments)." in
  Arg.(value & opt (some file) None & info [ "allow" ] ~docv:"FILE" ~doc)

let json_arg =
  let doc = "Emit a single-line machine-readable JSON report." in
  Arg.(value & flag & info [ "json" ] ~doc)

let sarif_arg =
  let doc = "Write a SARIF 2.1.0 report to $(docv) (for code-scanning upload)." in
  Arg.(value & opt (some string) None & info [ "sarif" ] ~docv:"FILE" ~doc)

let check_allow_arg =
  let doc =
    "Fail (exit 1) if any allowlist entry suppresses nothing, so \
     suppressions cannot outlive the violations they cover."
  in
  Arg.(value & flag & info [ "check-allow" ] ~doc)

let roots_arg =
  let doc = "Directories to scan recursively for .ml files." in
  Arg.(value & pos_all string [ "lib"; "bin" ] & info [] ~docv:"DIR" ~doc)

let cmd =
  let doc = "determinism, aliasing, domain-safety, purity & protocol lints for the MDCC tree" in
  let info = Cmd.info "mdcc-lint" ~doc in
  Cmd.v info
    Term.(
      const run $ allow_arg $ json_arg $ sarif_arg $ check_allow_arg $ roots_arg)

let () = exit (Cmd.eval cmd)
