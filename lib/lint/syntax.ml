(* Parsetree plumbing shared by the rule families. *)

open Parsetree

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> strip e
  | _ -> e

let idents e =
  let acc = ref [] in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; _ } -> acc := Longident.flatten txt :: !acc
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it e;
  List.rev !acc

let allocation ?(atomic = true) ?(ref_name = "ref") e =
  match e.pexp_desc with
  | Pexp_array _ -> Some "array literal"
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
    let comps = Longident.flatten txt in
    match List.rev comps with
    | "ref" :: _ -> Some ref_name
    | "create" :: ("Hashtbl" | "Buffer" | "Queue" | "Stack" | "Tbl") :: _
    | ("make" | "init") :: "Array" :: _
    | ("create" | "make" | "of_string") :: "Bytes" :: _ ->
      Some (String.concat "." comps)
    | "make" :: "Atomic" :: _ when atomic -> Some (String.concat "." comps)
    | _ -> None)
  | _ -> None

let rec first_allocation ~deep ?ref_name e =
  match allocation ?ref_name e with
  | Some what -> Some (e.pexp_loc, what)
  | None -> (
    let first = List.find_map (first_allocation ~deep ?ref_name) in
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident _; _ }, args) -> first (List.map snd args)
    | Pexp_tuple es -> first es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> first [ e ]
    | Pexp_record (fields, base) -> first (List.map snd fields @ Option.to_list base)
    | _ when not deep -> None
    | Pexp_newtype (_, e) | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) ->
      first [ e ]
    | Pexp_let (_, vbs, body) -> first (List.map (fun vb -> vb.pvb_expr) vbs @ [ body ])
    | Pexp_sequence (a, b) -> first [ a; b ]
    | Pexp_ifthenelse (c, t, e) -> first (c :: t :: Option.to_list e)
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      first (scrut :: List.map (fun c -> c.pc_rhs) cases)
    | _ -> None)

let payload_ctors (te : type_extension) =
  match List.rev (Longident.flatten te.ptyext_path.txt) with
  | "payload" :: _ ->
    List.filter_map
      (fun ec ->
        match ec.pext_kind with Pext_decl (_, args, _) -> Some (ec, args) | Pext_rebind _ -> None)
      te.ptyext_constructors
  | _ -> []

let rec iter_top_bindings f items =
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.iter f vbs
      | Pstr_module mb -> module_expr f mb.pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> module_expr f mb.pmb_expr) mbs
      | _ -> ())
    items

and module_expr f me =
  match me.pmod_desc with
  | Pmod_structure items -> iter_top_bindings f items
  | Pmod_constraint (inner, _) -> module_expr f inner
  | _ -> () (* functor bodies bind per application *)
