type t = {
  rule : string;  (* e.g. "R1-hash-iter" *)
  file : string;  (* repo-relative path *)
  line : int;  (* 1-based *)
  col : int;  (* 0-based, as compilers print *)
  ident : string;  (* the offending identifier / constructor *)
  message : string;
}

let at ~file ~loc ~rule ~ident message =
  let p = loc.Location.loc_start in
  { rule; file; line = p.Lexing.pos_lnum; col = p.Lexing.pos_cnum - p.Lexing.pos_bol; ident; message }

let family rule =
  match String.index_opt rule '-' with
  | Some i -> String.sub rule 0 i
  | None -> rule

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> (
        match String.compare a.rule b.rule with
        | 0 -> String.compare a.ident b.ident
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let to_string f =
  Printf.sprintf "%s:%d:%d: [%s] %s (%s)" f.file f.line f.col f.rule f.message f.ident

let to_json f =
  Mdcc_obs.Json.(
    Obj
      [
        ("rule", Str f.rule);
        ("file", Str f.file);
        ("line", Int f.line);
        ("col", Int f.col);
        ("ident", Str f.ident);
        ("message", Str f.message);
      ])
