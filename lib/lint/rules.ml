(* The per-file syntactic rules R1-R4 and R6, as one pass over the
   Parsetree. The linter lints its own source tree, so this module must obey
   its own rules: no hash-order iteration, no wall clock, no bare partiality.
   The type environment is therefore a [Map], and every traversal is over
   lists built in source order. *)

open Parsetree

let ends_with ~suffix s =
  let ls = String.length suffix and l = String.length s in
  l >= ls && String.equal (String.sub s (l - ls) ls) suffix

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
(* Identifier rules (R1, R3, R6)                                       *)
(* ------------------------------------------------------------------ *)

(* R6 keeps OS ambience out of the deterministic core: clocks, timers,
   sends and traces all arrive through [Mdcc_core.Runtime.t], which is what
   lets the same state machines run under the simulator and the socket
   loop.  A direct [Unix.*] call, a [Sys.*] read, channel I/O or a process
   [exit] there is an effect the replayer cannot see.  The sanctioned homes
   for OS ambience are lib/runtime_unix and bin/; lib/obs's one clock,
   [Mdcc_obs.Clock], is carved out by a file-scoped lint_allow.conf entry.
   [R6-runtime] goes one step further in the step modules,
   lib/core/acceptor.ml, leader.ml and txn_decision.ml, which take the time
   as an argument where they need it and answer verdicts: no runtime,
   outbox, context, counter or event there, so a test can step them
   alone. *)

type ident_rule = {
  id : string;
  hit : string list -> bool;  (* on the reversed path *)
  shadowable : bool;  (* a bare name the file binds itself is not a hit *)
  message : string;
}

let hash_order_fns = [ "iter"; "fold"; "to_seq"; "to_seq_keys"; "to_seq_values"; "randomize" ]

(* [Sys] members that are pure compile-time-ish constants; everything else
   in [Sys] is an environment read or an OS effect. *)
let benign_sys =
  [ "max_string_length"; "max_array_length"; "max_floatarray_length"; "int_size"; "word_size";
    "big_endian"; "ocaml_version"; "backend_type"; "opaque_identity" ]

(* Stdlib console/channel primitives that reach the process's file
   descriptors when used bare or via [Stdlib.]. *)
let channel_prims =
  [ "print_string"; "print_bytes"; "print_char"; "print_int"; "print_float"; "print_endline";
    "print_newline"; "prerr_string"; "prerr_bytes"; "prerr_char"; "prerr_int"; "prerr_float";
    "prerr_endline"; "prerr_newline"; "read_line"; "read_int"; "read_int_opt"; "read_float";
    "read_float_opt"; "open_in"; "open_in_bin"; "open_in_gen"; "open_out"; "open_out_bin";
    "open_out_gen"; "input_line"; "input_char"; "input_byte"; "input_binary_int";
    "really_input"; "really_input_string"; "output_string"; "output_bytes"; "output_char";
    "output_byte"; "output_binary_int"; "close_in"; "close_in_noerr"; "close_out";
    "close_out_noerr"; "flush"; "flush_all"; "stdin"; "stdout"; "stderr" ]

(* A Stdlib value named in [names], used bare or through [Stdlib.]. *)
let stdlib names = function [ x ] | x :: "Stdlib" :: _ -> List.mem x names | _ -> false

let failure = "anonymous failure in a protocol path; use Mdcc_util.Invariant.violate"
let channel_io = "channel I/O in the deterministic core; route the effect through Runtime.t"

(* Every entry whose test holds reports the identifier. *)
let ident_rules =
  let rule ?(shadowable = false) id message hit = { id; hit; shadowable; message } in
  [
    rule "R1-random" "nondeterministic PRNG; use the seeded Mdcc_util.Rng" (function
      | _ :: mods -> List.mem "Random" mods
      | [] -> false);
    rule "R1-wallclock" "wall-clock read; use Mdcc_sim.Engine.now (profiler code: Mdcc_obs.Clock)"
      (function
      | "time" :: ("Sys" | "Unix") :: _ | "gettimeofday" :: "Unix" :: _ -> true
      | _ -> false);
    rule "R1-hash-iter" "hash-order iteration; use Mdcc_util.Table.sorted_* (or Key.Tbl.sorted_*)"
      (function fn :: "Hashtbl" :: _ -> List.mem fn hash_order_fns | _ -> false);
    rule "R1-hash-iter" "hash-order iteration; use the sorted_* helpers" (function
      | fn :: "Tbl" :: _ -> List.mem fn hash_order_fns
      | _ -> false);
    rule "R3-failwith" failure (stdlib [ "failwith" ]);
    rule "R3-invalid-arg" failure (stdlib [ "invalid_arg" ]);
    rule "R3-option-get"
      "partial Option.get; match explicitly and Invariant.violate on the impossible arm"
      (function "get" :: "Option" :: _ -> true | _ -> false);
    rule "R3-list-hd" "partial List.hd; match explicitly and Invariant.violate on the impossible arm"
      (function "hd" :: "List" :: _ -> true | _ -> false);
    rule "R6-unix" "direct OS call in the deterministic core; route the effect through Runtime.t"
      (function _ :: "Unix" :: _ -> true | _ -> false);
    rule "R6-sys" "ambient process state read in the deterministic core; route it through Runtime.t"
      (function fn :: "Sys" :: _ -> not (List.mem fn benign_sys) | _ -> false);
    rule "R6-channel" channel_io (function
      | _ :: ("In_channel" | "Out_channel") :: _ -> true
      | _ -> false);
    rule "R6-print"
      "console output in the deterministic core; use Runtime.trace (or return the string)"
      (function
      | ("printf" | "eprintf" | "fprintf") :: "Printf" :: _
      | ("printf" | "eprintf" | "std_formatter" | "err_formatter") :: "Format" :: _ -> true
      | _ -> false);
    rule ~shadowable:true "R6-exit"
      "process exit in the deterministic core; raise a structured error instead" (stdlib [ "exit" ]);
    rule ~shadowable:true "R6-channel" channel_io (stdlib channel_prims);
    rule "R6-runtime"
      "runtime, send, count or emit in a step module; answer a verdict its driver acts on"
      (function
      | _ :: ("Runtime" | "Outbox" | "Ctx" | "Obs" | "Event") :: _ -> true
      | _ -> false);
  ]

module Sset = Set.Make (String)

(* Every name the file binds itself (top-level lets, local lets, function
   parameters).  A bare identifier carrying one of those names resolves to
   the local binding, not to Stdlib — wire/handler.ml's own [flush] must
   not read as [Stdlib.flush].  Qualified uses are unaffected. *)
let bound_names (str : structure) =
  let acc = ref Sset.empty in
  let super = Ast_iterator.default_iterator in
  let pat it p =
    (match p.ppat_desc with
    | Ppat_var { txt; _ } -> acc := Sset.add txt !acc
    | _ -> ());
    super.pat it p
  in
  let it = { super with pat } in
  it.structure it str;
  !acc

(* ------------------------------------------------------------------ *)
(* The per-file pass                                                   *)
(* ------------------------------------------------------------------ *)

let check (env : env) ~rel (str : structure) : Finding.t list =
  let module_ = Scope.module_name rel in
  let in_scope rule = Scope.applies ~rule rel in
  let out = ref [] in
  let add ~loc rule ident message = out := Finding.at ~file:rel ~loc ~rule ~ident message :: !out in

  (* R1, R3, R6: identifier uses, through the rule table. *)
  let ident_rules = List.filter (fun r -> in_scope r.id) ident_rules in
  let bound_names = lazy (bound_names str) in
  let bound = function [ x ] -> Sset.mem x (Lazy.force bound_names) | _ -> false in
  let check_ident ~loc comps =
    let path = List.rev comps in
    List.iter
      (fun r ->
        if r.hit path && not (r.shadowable && bound path) then
          add ~loc r.id (String.concat "." comps) r.message)
      ident_rules
  in

  (* R2-send: mutable values constructed directly at a network send site. *)
  let is_send_fn comps =
    match List.rev comps with
    | ("send" | "broadcast") :: owner :: _ ->
      String.equal owner "Net" || String.equal owner "Network"
      || String.equal owner "Runtime"
    | _ -> false
  in

  (* R2-payload: mutable state reachable from an extension of [payload]. *)
  let check_payload_extension (te : type_extension) =
    List.iter
      (fun (ec, args) ->
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
          types)
      (Syntax.payload_ctors te)
  in

  (* R4-ambient: mutable values bound at module top level.  A top-level ref
     or table is process-global: worker domains spawned by Mdcc_util.Pool
     share it, racing and breaking same-seed determinism.  The walk stops at
     function and lazy boundaries — [let f () = ref 0] allocates per call,
     and a [Domain.DLS.new_key (fun () -> ...)] default allocates per
     domain, so both are fine. *)
  if in_scope "R4-ambient" then
    Syntax.iter_top_bindings
      (fun vb ->
        match Syntax.first_allocation ~deep:true vb.pvb_expr with
        | Some (loc, what) ->
          add ~loc "R4-ambient" what
            "top-level mutable state is shared across worker domains; allocate per call or \
             route it through Domain.DLS"
        | None -> ())
      str;

  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_ident { txt; loc } -> check_ident ~loc (Longident.flatten txt)
    | Pexp_construct ({ txt = Longident.Ldot _ as txt; loc }, _) ->
      check_ident ~loc (Longident.flatten txt)
    | Pexp_assert { pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None); _ }
      when in_scope "R3-assert-false" ->
      add ~loc:e.pexp_loc "R3-assert-false" "assert false" failure
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args)
      when is_send_fn (Longident.flatten txt) ->
      List.iter
        (fun (_, a) ->
          match Syntax.first_allocation ~deep:false ~ref_name:"ref cell" a with
          | Some (loc, what) ->
            add ~loc "R2-send" what
              "mutable value constructed at a network send site; build an immutable payload"
          | None -> ())
        args
    | _ -> ());
    super.expr it e
  in
  let type_declaration it td =
    (if in_scope "R1-simtime" then
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
