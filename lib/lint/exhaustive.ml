(* R7 — protocol exhaustiveness.

   [Network.payload] is an open extensible type, so OCaml cannot check a
   receiver's dispatch match for exhaustiveness: every [match payload with]
   needs a wildcard arm to absorb the *other* modules' constructors, and
   that same wildcard silently swallows any constructor of the receiver's
   own message family that was forgotten — exactly how a newly added
   message type gets dropped on the floor with no compiler diagnostic.

   R7 closes the gap in two halves:

   - per file, [summarize] extracts (a) the constructor set of every
     [type ... payload += ...] extension and (b) every match that names at
     least one payload constructor and ends in a wildcard arm, recording
     which constructors are named explicitly and whether the wildcard
     *delegates* (re-forwards the scrutinee, like the read-path shims of
     [Harness.install]) or *drops* (returns without using the message);

   - at link time, [check] joins the two: a dropping wildcard in a match
     that names constructors of family F must be preceded by an explicit
     arm for {e every} constructor of F.  When all of F is named, the
     wildcard only ever sees foreign payloads and is legitimate.

   Scope: lib/core, lib/paxos, lib/protocols — the receivers whose silent
   drops would stall the commit protocol.  (lib/chaos matches payloads to
   target faults at specific message types; partial matching is its job.) *)

open Parsetree

type decl = { dc_module : string; dc_ctor : string }

type site = {
  st_module : string;  (* family owner the named constructors resolve to *)
  st_named : string list;  (* constructors matched explicitly, sorted, deduped *)
  st_loc : Location.t;  (* wildcard arm position *)
}

type summary = { sm_decls : decl list; sm_sites : site list }

(* Constructor names matched at the top level of one case pattern, as
   (owner module option, constructor) pairs; or-patterns contribute every
   branch. *)
let rec pattern_ctors p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, _) -> (
    match List.rev (Longident.flatten txt) with
    | ctor :: owner :: _ -> [ (Some owner, ctor) ]
    | [ ctor ] -> [ (None, ctor) ]
    | [] -> [])
  | Ppat_or (a, b) -> pattern_ctors a @ pattern_ctors b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) -> pattern_ctors p
  | _ -> []

let rec is_wildcard_pattern p =
  match p.ppat_desc with
  | Ppat_any -> Some None
  | Ppat_var { txt; _ } -> Some (Some txt)
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_open (_, p) ->
    is_wildcard_pattern p
  | _ -> None

(* Does [e] mention the identifier [name] (unqualified)?  Used to detect
   delegation: a wildcard arm that re-forwards the scrutinee is not a
   silent drop. *)
let mentions name e = List.mem [ name ] (Syntax.idents e)

let summarize ~rel (str : structure) : summary =
  let module_ = Scope.module_name rel in
  let decls = ref [] in
  let sites = ref [] in

  let collect_typext te =
    List.iter
      (fun (ec, _) -> decls := { dc_module = module_; dc_ctor = ec.pext_name.txt } :: !decls)
      (Syntax.payload_ctors te)
  in

  let collect_match scrut cases =
    (* Explicitly named constructors, grouped by resolved owner module. *)
    let named =
      List.concat_map
        (fun c ->
          List.map
            (fun (owner, ctor) -> (Option.value owner ~default:module_, ctor))
            (pattern_ctors c.pc_lhs))
        cases
    in
    (* The covering wildcard: an unguarded catch-all arm.  Guarded
       wildcards do not cover, so keep looking past them. *)
    let wild =
      List.find_map
        (fun c ->
          match is_wildcard_pattern c.pc_lhs with
          | Some binder when c.pc_guard = None -> Some (c, binder)
          | _ -> None)
        cases
    in
    match wild with
    | None -> ()
    | Some (c, binder) ->
      let delegates =
        (match binder with Some v -> mentions v c.pc_rhs | None -> false)
        ||
        match scrut with
        | Some { pexp_desc = Pexp_ident { txt = Longident.Lident x; _ }; _ } ->
          mentions x c.pc_rhs
        | _ -> false
      in
      if not delegates then begin
        (* One site per owner module named in the match; the link phase
           keeps only owners that actually declare a payload family. *)
        let owners =
          List.sort_uniq String.compare (List.map fst named)
        in
        List.iter
          (fun owner ->
            let ctors =
              List.filter_map
                (fun (o, c) -> if String.equal o owner then Some c else None)
                named
              |> List.sort_uniq String.compare
            in
            sites :=
              {
                st_module = owner;
                st_named = ctors;
                st_loc = c.pc_lhs.ppat_loc;
              }
              :: !sites)
          owners
      end
  in

  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_match (scrut, cases) -> collect_match (Some scrut) cases
    | Pexp_function cases -> collect_match None cases
    | _ -> ());
    super.expr it e
  in
  let type_extension it te =
    collect_typext te;
    super.type_extension it te
  in
  let it = { super with expr; type_extension } in
  it.structure it str;
  { sm_decls = List.rev !decls; sm_sites = List.rev !sites }

module Smap = Map.Make (String)

type families = string list Smap.t

let link ~(decls : summary list) : families =
  List.fold_left
    (fun fams sm ->
      List.fold_left
        (fun fams d ->
          let existing = Option.value (Smap.find_opt d.dc_module fams) ~default:[] in
          Smap.add d.dc_module (d.dc_ctor :: existing) fams)
        fams sm.sm_decls)
    Smap.empty decls
  |> Smap.map (List.sort_uniq String.compare)

let check (fams : families) ~rel (sm : summary) : Finding.t list =
  if not (Scope.applies ~rule:"R7-unhandled" rel) then []
  else
    List.filter_map
      (fun st ->
        match Smap.find_opt st.st_module fams with
        | None -> None  (* named constructors are not a payload family *)
        | Some family ->
          (* Only a match that names at least one constructor *of the
             family* is a payload dispatch; a match over some other type
             declared in the same module (e.g. [Messages.status]) is not. *)
          let names_family = List.exists (fun c -> List.mem c family) st.st_named in
          let missing =
            List.filter (fun c -> not (List.mem c st.st_named)) family
          in
          if (not names_family) || missing = [] then None
          else
            Some
              (Finding.at ~file:rel ~loc:st.st_loc ~rule:"R7-unhandled" ~ident:st.st_module
                 (Printf.sprintf
                    "wildcard arm silently drops %d %s payload constructor(s): %s; name every \
                     constructor explicitly (an explicit ignore arm is fine) so new message \
                     types cannot vanish here"
                    (List.length missing) st.st_module
                    (String.concat ", " missing))))
      sm.sm_sites
