type entry = {
  a_rule : string;
  a_path : string;
  a_line : int option;
  a_raw : string;
}

type t = entry list

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let parse_path tok =
  match String.rindex_opt tok ':' with
  | Some i -> (
    let path = String.sub tok 0 i in
    let tail = String.sub tok (i + 1) (String.length tok - i - 1) in
    match int_of_string_opt tail with
    | Some line -> (path, Some line)
    | None -> (tok, None))
  | None -> (tok, None)

(* Entries are stored with the path normalised the same way finding paths
   are (norm_rel) and with any trailing '/' stripped, so "lib/runtime_unix"
   and "lib/runtime_unix/" denote the same directory scope. *)
let norm_path path =
  let path = Scope.norm_rel path in
  let n = String.length path in
  if n > 1 && path.[n - 1] = '/' then String.sub path 0 (n - 1) else path

let of_string text =
  String.split_on_char '\n' text
  |> List.concat_map (fun line ->
         let body = String.trim (strip_comment line) in
         if String.equal body "" then []
         else
           match
             String.split_on_char ' ' body
             |> List.concat_map (String.split_on_char '\t')
             |> List.filter (fun t -> not (String.equal t ""))
           with
           | [ rule; path_tok ] ->
             let path, a_line = parse_path path_tok in
             [ { a_rule = rule; a_path = norm_path path; a_line; a_raw = body } ]
           | _ -> failwith (Printf.sprintf "malformed allowlist line: %S" body))

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let rule_matches entry_rule finding_rule =
  String.equal entry_rule "*"
  || String.equal entry_rule finding_rule
  || String.equal entry_rule (Finding.family finding_rule)

(* An entry path matches a finding's file when it names that file exactly or
   is a proper directory prefix of it ("lib/foo" covers "lib/foo/bar.ml" but
   never the sibling "lib/foobar.ml" — the separator is part of the test).
   Directory-ness needs no trailing slash; normalisation stripped it. *)
let path_matches entry_path file =
  String.equal entry_path file
  || Scope.starts_with ~prefix:(entry_path ^ "/") file

let entry_permits (e : entry) (f : Finding.t) =
  rule_matches e.a_rule f.Finding.rule
  && path_matches e.a_path f.Finding.file
  && match e.a_line with None -> true | Some l -> l = f.Finding.line

let permits (t : t) (f : Finding.t) = List.exists (fun e -> entry_permits e f) t

let unused (t : t) (findings : Finding.t list) =
  List.filter (fun e -> not (List.exists (entry_permits e) findings)) t

let entry_to_string (e : entry) = e.a_raw
