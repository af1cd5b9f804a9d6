exception Parse_error of { file : string; message : string }

type source = { src_rel : string; src_path : string }

type report = {
  rp_scanned : int;
  rp_findings : Finding.t list;
  rp_suppressed : Finding.t list;
}

let parse_file ~rel ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let lexbuf = Lexing.from_channel ic in
      Location.init lexbuf rel;
      try Parse.implementation lexbuf
      with exn -> raise (Parse_error { file = rel; message = Printexc.to_string exn }))

(* Deterministic recursive walk: children visited in byte order, hidden
   directories and build artefacts skipped. *)
let rec walk dir acc =
  let entries = Sys.readdir dir |> Array.to_list |> List.sort String.compare in
  List.fold_left
    (fun acc name ->
      if String.length name = 0 || name.[0] = '.' || String.equal name "_build" then acc
      else
        let full = Filename.concat dir name in
        if Sys.is_directory full then walk full acc
        else if Filename.check_suffix name ".ml" then
          { src_rel = Scope.norm_rel full; src_path = full } :: acc
        else acc)
    acc entries

let collect roots =
  List.fold_left (fun acc root -> walk root acc) [] roots
  |> List.sort (fun a b -> String.compare a.src_rel b.src_rel)

(* One sequential pass: parse every file (compiler-libs' lexer keeps
   global mutable state), harvest each file's Summary.file from its AST,
   link the summaries in the sorted source order [collect] pinned, then
   run every per-file check against the linked environment.  The final
   sort makes the findings' order independent of the file order. *)
let scan_sources ?(allow = []) sources =
  let harvested =
    List.map
      (fun s ->
        let rel = Scope.norm_rel s.src_rel in
        let str = parse_file ~rel ~path:s.src_path in
        (rel, str, Summary.of_structure ~rel str))
      sources
  in
  let linked = Summary.link (List.map (fun (_, _, sm) -> sm) harvested) in
  let all =
    List.concat_map
      (fun (rel, str, sm) ->
        Rules.check linked.Summary.l_env ~rel str
        @ Escape.check linked.Summary.l_spawners ~rel str
        @ Exhaustive.check linked.Summary.l_families ~rel sm.Summary.f_exhaustive)
      harvested
    |> List.sort Finding.compare
  in
  let rp_suppressed, rp_findings = List.partition (Allowlist.permits allow) all in
  { rp_scanned = List.length sources; rp_findings; rp_suppressed }

let scan ?allow roots = scan_sources ?allow (collect roots)

let report_to_json r =
  let findings fs = Mdcc_obs.Json.List (List.map Finding.to_json fs) in
  Mdcc_obs.Json.(
    to_string
      (Obj
         [
           ("version", Int 2);
           ("scanned", Int r.rp_scanned);
           ("violations", Int (List.length r.rp_findings));
           ("findings", findings r.rp_findings);
           ("allowlisted", findings r.rp_suppressed);
         ]))

let report_to_sarif r =
  Sarif.render ~findings:r.rp_findings ~suppressed:r.rp_suppressed
