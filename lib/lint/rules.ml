(* The three rule families, implemented as a purely syntactic pass over the
   Parsetree. The linter lints its own source tree, so this module must obey
   its own rules: no hash-order iteration, no wall clock, no bare partiality.
   The type environment is therefore a [Map], and every traversal is over
   lists built in source order. *)

open Parsetree

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

let norm_rel rel =
  let rel = if starts_with ~prefix:"./" rel then String.sub rel 2 (String.length rel - 2) else rel in
  String.map (fun c -> if c = '\\' then '/' else c) rel

(* R3 applies only where an anonymous failure can kill a protocol step. *)
let in_protocol_core rel =
  starts_with ~prefix:"lib/core/" rel || starts_with ~prefix:"lib/paxos/" rel

(* R3 additionally covers the shared utility layer: a bare [invalid_arg] in
   Stats or Rng surfaces as an anonymous crash in whatever protocol path
   called it, so those must route through Invariant.violate too. *)
let in_r3_scope rel = in_protocol_core rel || starts_with ~prefix:"lib/util/" rel

(* R1-simtime applies wherever timestamps feed replay / checking. *)
let in_simtime_scope rel = in_protocol_core rel || starts_with ~prefix:"lib/chaos/" rel

(* R4 covers the whole library tree: worker domains assume every module is
   either pure or routes its ambient state through Domain.DLS. *)
let in_r4_scope rel = starts_with ~prefix:"lib/" rel

let module_name_of_rel rel =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename rel))

(* ------------------------------------------------------------------ *)
(* Type environment (for R2 reachability)                              *)
(* ------------------------------------------------------------------ *)

module Smap = Map.Make (String)

type type_entry = {
  e_module : string;  (* module the declaration lives in *)
  e_mutable : string option;  (* why the type is directly mutable, if it is *)
  e_types : core_type list;  (* component types to recurse into *)
}

type env = type_entry Smap.t

let record_mutable_reason lds =
  List.find_map
    (fun ld ->
      if ld.pld_mutable = Asttypes.Mutable then Some ("mutable field " ^ ld.pld_name.txt)
      else None)
    lds

let decl_entry ~module_ (td : type_declaration) =
  let mut, types =
    match td.ptype_kind with
    | Ptype_record lds -> (record_mutable_reason lds, List.map (fun ld -> ld.pld_type) lds)
    | Ptype_variant cds ->
      let mut =
        List.find_map
          (fun cd ->
            match cd.pcd_args with
            | Pcstr_record lds -> record_mutable_reason lds
            | Pcstr_tuple _ -> None)
          cds
      in
      let types =
        List.concat_map
          (fun cd ->
            match cd.pcd_args with
            | Pcstr_tuple cts -> cts
            | Pcstr_record lds -> List.map (fun ld -> ld.pld_type) lds)
          cds
      in
      (mut, types)
    | Ptype_abstract | Ptype_open -> (None, [])
  in
  let types = match td.ptype_manifest with Some m -> m :: types | None -> types in
  { e_module = module_; e_mutable = mut; e_types = types }

(* Per-file half of env building, so the driver can harvest declarations
   from every file and fold the (order-independent) entries together in a
   link phase. *)
let type_entries ~module_ (str : structure) : (string * type_entry) list =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, tds) ->
        List.map (fun td -> (module_ ^ "." ^ td.ptype_name.txt, decl_entry ~module_ td)) tds
      | _ -> [])
    str

let env_of_entries (entries : (string * type_entry) list list) : env =
  List.fold_left
    (fun env file_entries ->
      List.fold_left (fun env (k, e) -> Smap.add k e env) env file_entries)
    Smap.empty entries

(* ------------------------------------------------------------------ *)
(* Mutability reachability (R2)                                        *)
(* ------------------------------------------------------------------ *)

(* Well-known mutable containers, recognised by the tail of the type path so
   both [Hashtbl.t] and [Mdcc_storage.Key.Tbl.t] are caught. *)
let mutable_builtin comps =
  match List.rev comps with
  | "ref" :: _ -> Some "ref cell"
  | "array" :: _ -> Some "array"
  | "bytes" :: _ -> Some "bytes"
  | "t" :: "Hashtbl" :: _ -> Some "Hashtbl.t"
  | "t" :: "Tbl" :: _ -> Some "hash table (Tbl.t)"
  | "t" :: "Buffer" :: _ -> Some "Buffer.t"
  | "t" :: "Bytes" :: _ -> Some "Bytes.t"
  | "t" :: "Queue" :: _ -> Some "Queue.t"
  | "t" :: "Stack" :: _ -> Some "Stack.t"
  | _ -> None

(* Returns a human-readable trail when [ct] can reach mutable state, [None]
   otherwise. Unresolvable constructors are assumed immutable: the pass is
   syntactic and has no cmi access, so it only follows declarations it saw. *)
let rec type_mutability (env : env) ~current_module visited (ct : core_type) : string option =
  let recurse = type_mutability env ~current_module visited in
  match ct.ptyp_desc with
  | Ptyp_constr (lid, args) -> (
    let comps = Longident.flatten lid.txt in
    match mutable_builtin comps with
    | Some why -> Some why
    | None -> (
      let n = List.length comps in
      let tname = List.nth comps (n - 1) in
      let owner = if n >= 2 then List.nth comps (n - 2) else current_module in
      let qname = owner ^ "." ^ tname in
      let via_decl =
        match Smap.find_opt qname env with
        | Some e when not (List.mem qname visited) -> (
          match e.e_mutable with
          | Some why -> Some (qname ^ ": " ^ why)
          | None ->
            List.find_map
              (type_mutability env ~current_module:e.e_module (qname :: visited))
              e.e_types
            |> Option.map (fun why -> qname ^ " -> " ^ why))
        | _ -> None
      in
      match via_decl with Some why -> Some why | None -> List.find_map recurse args))
  | Ptyp_tuple cts -> List.find_map recurse cts
  | Ptyp_alias (ct, _) | Ptyp_poly (_, ct) -> recurse ct
  | Ptyp_variant (rows, _, _) ->
    List.find_map
      (fun row ->
        match row.prf_desc with
        | Rtag (_, _, cts) -> List.find_map recurse cts
        | Rinherit ct -> recurse ct)
      rows
  | _ -> None

(* ------------------------------------------------------------------ *)
(* The per-file pass                                                   *)
(* ------------------------------------------------------------------ *)

let hash_order_fns = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values"; "randomize" ]

let check (env : env) ~rel (str : structure) : Finding.t list =
  let rel = norm_rel rel in
  let module_ = module_name_of_rel rel in
  let out = ref [] in
  let add ~loc rule ident message =
    let p = loc.Location.loc_start in
    out :=
      {
        Finding.rule;
        file = rel;
        line = p.Lexing.pos_lnum;
        col = p.Lexing.pos_cnum - p.Lexing.pos_bol;
        ident;
        message;
      }
      :: !out
  in

  (* R1 + R3: identifier uses. *)
  let check_ident ~loc comps =
    let rcomps = List.rev comps in
    let dotted = String.concat "." comps in
    let mods = match rcomps with _ :: mods -> mods | [] -> [] in
    if List.exists (String.equal "Random") mods then
      add ~loc "R1-random" dotted "nondeterministic PRNG; use the seeded Mdcc_util.Rng";
    (match rcomps with
    | "time" :: "Sys" :: _ | "time" :: "Unix" :: _ | "gettimeofday" :: "Unix" :: _ ->
      add ~loc "R1-wallclock" dotted
        "wall-clock read; use Mdcc_sim.Engine.now (profiler code: Mdcc_obs.Clock)"
    | fn :: "Hashtbl" :: _ when List.mem fn hash_order_fns ->
      add ~loc "R1-hash-iter" dotted
        "hash-order iteration; use Mdcc_util.Table.sorted_* (or Key.Tbl.sorted_*)"
    | fn :: "Tbl" :: _ when List.mem fn hash_order_fns ->
      add ~loc "R1-hash-iter" dotted "hash-order iteration; use the sorted_* helpers"
    | _ -> ());
    if in_r3_scope rel then
      match rcomps with
      | [ "failwith" ] | "failwith" :: "Stdlib" :: _ ->
        add ~loc "R3-failwith" dotted
          "anonymous failure in a protocol path; use Mdcc_util.Invariant.violate"
      | [ "invalid_arg" ] | "invalid_arg" :: "Stdlib" :: _ ->
        add ~loc "R3-invalid-arg" dotted
          "anonymous failure in a protocol path; use Mdcc_util.Invariant.violate"
      | "get" :: "Option" :: _ ->
        add ~loc "R3-option-get" dotted
          "partial Option.get; match explicitly and Invariant.violate on the impossible arm"
      | "hd" :: "List" :: _ ->
        add ~loc "R3-list-hd" dotted
          "partial List.hd; match explicitly and Invariant.violate on the impossible arm"
      | _ -> ()
  in

  (* R2-send: mutable values constructed directly at a network send site. *)
  let is_send_fn comps =
    match List.rev comps with
    | ("send" | "broadcast") :: owner :: _ ->
      String.equal owner "Net" || String.equal owner "Network"
      || String.equal owner "Runtime"
    | _ -> false
  in
  let rec mutable_literal e =
    match e.pexp_desc with
    | Pexp_array _ -> Some (e.pexp_loc, "array literal")
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let comps = Longident.flatten txt in
      match List.rev comps with
      | "ref" :: _ -> Some (e.pexp_loc, "ref cell")
      | "create" :: ("Hashtbl" | "Buffer" | "Queue" | "Stack") :: _
      | ("of_string" | "create" | "make") :: "Bytes" :: _ ->
        Some (e.pexp_loc, String.concat "." comps)
      | _ -> List.find_map (fun (_, a) -> mutable_literal a) args)
    | Pexp_tuple es -> List.find_map mutable_literal es
    | Pexp_construct (_, Some e) | Pexp_variant (_, Some e) -> mutable_literal e
    | Pexp_record (fields, base) -> (
      match List.find_map (fun (_, fe) -> mutable_literal fe) fields with
      | Some hit -> Some hit
      | None -> Option.bind base mutable_literal)
    | _ -> None
  in

  (* R2-payload: mutable state reachable from an extension of [payload]. *)
  let check_payload_extension (te : type_extension) =
    let path = Longident.flatten te.ptyext_path.txt in
    let is_payload =
      match List.rev path with "payload" :: _ -> true | _ -> false
    in
    if is_payload then
      List.iter
        (fun ec ->
          match ec.pext_kind with
          | Pext_decl (_, args, _) ->
            let types =
              match args with
              | Pcstr_tuple cts -> cts
              | Pcstr_record lds ->
                List.iter
                  (fun ld ->
                    if ld.pld_mutable = Asttypes.Mutable then
                      add ~loc:ld.pld_loc "R2-payload" ec.pext_name.txt
                        ("payload constructor has mutable field " ^ ld.pld_name.txt
                       ^ "; receivers would alias sender state across data centers"))
                  lds;
                List.map (fun ld -> ld.pld_type) lds
            in
            List.iter
              (fun ct ->
                match type_mutability env ~current_module:module_ [] ct with
                | Some trail ->
                  add ~loc:ec.pext_loc "R2-payload" ec.pext_name.txt
                    ("payload constructor carries mutable state: " ^ trail
                   ^ "; messages must be deep-immutable")
                | None -> ())
              types
          | Pext_rebind _ -> ())
        te.ptyext_constructors
  in

  (* R4-ambient: mutable values bound at module top level.  A top-level ref
     or table is process-global: worker domains spawned by Mdcc_util.Pool
     share it, racing and breaking same-seed determinism.  The walk stops at
     function and lazy boundaries — [let f () = ref 0] allocates per call,
     and a [Domain.DLS.new_key (fun () -> ...)] default allocates per
     domain, so both are fine. *)
  let rec r4_mutable e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> None
    | Pexp_newtype (_, body) -> r4_mutable body
    | Pexp_array _ -> Some (e.pexp_loc, "array literal")
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
      let comps = Longident.flatten txt in
      match List.rev comps with
      | "ref" :: _ -> Some (e.pexp_loc, "ref")
      | "create" :: ("Hashtbl" | "Buffer" | "Queue" | "Stack" | "Tbl") :: _
      | ("make" | "init") :: "Array" :: _
      | ("create" | "make" | "of_string") :: "Bytes" :: _
      | "make" :: "Atomic" :: _ ->
        Some (e.pexp_loc, String.concat "." comps)
      | _ -> List.find_map (fun (_, a) -> r4_mutable a) args)
    | Pexp_let (_, vbs, body) -> (
      match List.find_map (fun vb -> r4_mutable vb.pvb_expr) vbs with
      | Some hit -> Some hit
      | None -> r4_mutable body)
    | Pexp_sequence (a, b) -> (
      match r4_mutable a with Some hit -> Some hit | None -> r4_mutable b)
    | Pexp_ifthenelse (c, t, e_opt) -> (
      match r4_mutable c with
      | Some hit -> Some hit
      | None -> (
        match r4_mutable t with
        | Some hit -> Some hit
        | None -> Option.bind e_opt r4_mutable))
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) -> (
      match r4_mutable scrut with
      | Some hit -> Some hit
      | None -> List.find_map (fun c -> r4_mutable c.pc_rhs) cases)
    | Pexp_constraint (body, _) | Pexp_coerce (body, _, _) | Pexp_open (_, body) ->
      r4_mutable body
    | Pexp_tuple es -> List.find_map r4_mutable es
    | Pexp_construct (_, Some body) | Pexp_variant (_, Some body) -> r4_mutable body
    | Pexp_record (fields, base) -> (
      match List.find_map (fun (_, fe) -> r4_mutable fe) fields with
      | Some hit -> Some hit
      | None -> Option.bind base r4_mutable)
    | _ -> None
  in
  let r4_check_bindings vbs =
    List.iter
      (fun vb ->
        match r4_mutable vb.pvb_expr with
        | Some (loc, what) ->
          add ~loc "R4-ambient" what
            "top-level mutable state is shared across worker domains; allocate per call or \
             route it through Domain.DLS"
        | None -> ())
      vbs
  in
  let rec r4_structure items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) -> r4_check_bindings vbs
        | Pstr_module mb -> r4_module_expr mb.pmb_expr
        | Pstr_recmodule mbs -> List.iter (fun mb -> r4_module_expr mb.pmb_expr) mbs
        | _ -> ())
      items
  and r4_module_expr me =
    match me.pmod_desc with
    | Pmod_structure items -> r4_structure items
    | Pmod_constraint (inner, _) -> r4_module_expr inner
    | _ -> () (* functor bodies allocate per application *)
  in
  if in_r4_scope rel then r4_structure str;

  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~loc (Longident.flatten txt)
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when in_r3_scope rel ->
      add ~loc:e.pexp_loc "R3-assert-false" "assert false"
        "anonymous failure in a protocol path; use Mdcc_util.Invariant.violate"
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when is_send_fn (Longident.flatten txt) ->
      List.iter
        (fun (_, a) ->
          match mutable_literal a with
          | Some (loc, what) ->
            add ~loc "R2-send" what
              "mutable value constructed at a network send site; build an immutable payload"
          | None -> ())
        args
    | _ -> ());
    super.expr it e
  in
  let type_declaration it td =
    (if in_simtime_scope rel then
       match td.ptype_kind with
       | Ptype_record lds ->
         List.iter
           (fun ld ->
             if ends_with ~suffix:"_at" ld.pld_name.txt then
               match ld.pld_type.ptyp_desc with
               | Ptyp_constr ({ txt; _ }, []) when Longident.flatten txt = [ "float" ] ->
                 add ~loc:ld.pld_loc "R1-simtime" ld.pld_name.txt
                   "timestamp field typed bare float; use Mdcc_sim.Engine.sim_time so wall-clock \
                    values cannot leak in"
               | _ -> ())
           lds
       | _ -> ());
    super.type_declaration it td
  in
  let type_extension it te =
    check_payload_extension te;
    super.type_extension it te
  in
  let it = { super with expr; type_declaration; type_extension } in
  it.structure it str;
  List.rev !out
