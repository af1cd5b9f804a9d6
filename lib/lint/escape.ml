(* R5 — domain safety: mutable state escaping into parallel task closures.

   The parallel sweep path (PR 5) and the socket loop's cross-domain post
   (PR 6) both run closures on other domains: [Mdcc_util.Pool] tasks,
   [Domain.spawn] bodies, [Loop.post] thunks.  A closure that captures a
   plain mutable value — a [ref], [Hashtbl], [Buffer], [Queue], an array —
   shares that value across domains with no synchronisation, which is a
   data race under OCaml 5's memory model and, even when "benign", breaks
   the same-seed byte-identity contract the pool is pinned to.

   The analysis is a syntactic escape check with a cross-file link phase:

   - [edges]: per file, record every top-level function that forwards one
     of its own parameters into a call of a (potential) spawner — the
     call-graph edges along which "runs things on another domain" is
     contagious.  [Experiments.par_map] is the canonical case: its [~f]
     lands in [Prof.map_list] and from there in [Pool.map_list], so every
     [par_map] call site is a spawn site too.
   - [link]: fixpoint over all files' edges from the base spawner set
     ([Domain.spawn], [Pool.map_list], [Loop.post]).
   - [check]: at every application of a spawner, analyse each closure
     literal argument, and each local [let]-bound function passed by name
     (against the mutable locals in scope where it was defined):
     - [R5-capture]: the closure captures a local that was visibly bound
       to a mutable constructor ([ref], [Hashtbl.create], [Buffer.create],
       [Array.make], an array literal, ...).  [Atomic.make] is exempt —
       atomics are the sanctioned cross-domain cell.
     - [R5-mutate]: the closure assigns through a captured variable
       ([x := ...], [x.f <- ...], [x.(i) <- ...], [incr]/[decr],
       [Hashtbl.replace x ...], [Buffer.add_* x ...], ...) even when the
       binding site is out of sight (a parameter, a field read).
     A closure that touches [Mutex.*] is skipped wholesale: it has taken
     explicit responsibility for its synchronisation, and lock-region
     inference is beyond a syntactic pass.  Values bound *inside* the
     closure are task-local and never flagged.

   Like the rest of mdcc_lint this is untyped and under-approximate:
   aliases and cross-function flows it cannot see stay silent, and the
   byte-identity tests remain the dynamic backstop.  What it does catch is
   the shape every real race so far has had: a closure reaching for a
   mutable local of the enclosing function. *)

open Parsetree

module Sset = Set.Make (String)
module Smap = Map.Make (String)

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

(* Names bound by a pattern. *)
let rec pat_names p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> [ txt ]
  | Ppat_alias (inner, { txt; _ }) -> txt :: pat_names inner
  | Ppat_tuple ps | Ppat_array ps -> List.concat_map pat_names ps
  | Ppat_construct (_, Some (_, p)) | Ppat_variant (_, Some p) -> pat_names p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_names p) fields
  | Ppat_or (a, b) -> pat_names a @ pat_names b
  | Ppat_constraint (p, _) | Ppat_open (_, p) | Ppat_lazy p | Ppat_exception p ->
    pat_names p
  | _ -> []

(* Resolve an applied identifier to (owner module, function name); an
   unqualified lowercase call belongs to the current module. *)
let callee ~current_module txt =
  match List.rev (Longident.flatten txt) with
  | fn :: owner :: _ when String.length owner > 0 && owner.[0] >= 'A' && owner.[0] <= 'Z' ->
    Some (owner, fn)
  | [ fn ] -> Some (current_module, fn)
  | _ -> None

(* Unqualified identifiers mentioned anywhere in [e]. *)
let free_idents e =
  Sset.of_list (List.filter_map (function [ x ] -> Some x | _ -> None) (Syntax.idents e))

(* ------------------------------------------------------------------ *)
(* Per-file summary: call-graph edges for the spawner fixpoint          *)
(* ------------------------------------------------------------------ *)

type edge = {
  ed_fn : string * string;  (* defining (module, function) *)
  ed_callee : string * string;  (* applied (module, function) *)
}

type summary = { su_edges : edge list }

let rec fun_params e =
  match (Syntax.strip e).pexp_desc with
  | Pexp_fun (_, _, pat, body) -> pat_names pat @ fun_params body
  | Pexp_newtype (_, body) -> fun_params body
  | _ -> []

let rec fun_body e =
  match (Syntax.strip e).pexp_desc with
  | Pexp_fun (_, _, _, body) | Pexp_newtype (_, body) -> fun_body body
  | _ -> e

(* Local [let f = ...] bindings in [e], flat (scope-insensitive: good
   enough to expand an ident argument one level at a spawn site). *)
let local_bindings e =
  let acc = ref Smap.empty in
  let super = Ast_iterator.default_iterator in
  let expr it e =
    (match e.pexp_desc with
    | Pexp_let (_, vbs, _) ->
      List.iter
        (fun vb ->
          match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt; _ } -> acc := Smap.add txt vb.pvb_expr !acc
          | _ -> ())
        vbs
    | _ -> ());
    super.expr it e
  in
  let it = { super with expr } in
  it.expr it e;
  !acc

(* Free idents of an argument expression, looking through one level of
   local let-binding so [~f:run] with [let run x = f x] sees [f]. *)
let arg_flow locals arg =
  let direct = free_idents arg in
  Sset.fold
    (fun x acc ->
      match Smap.find_opt x locals with
      | Some def -> Sset.union acc (free_idents def)
      | None -> acc)
    direct direct

let edges ~rel (str : structure) : summary =
  let module_ = Scope.module_name rel in
  let out = ref [] in
  let scan_fn fname expr0 =
    let params = Sset.of_list (fun_params expr0) in
    if not (Sset.is_empty params) then begin
      let body = fun_body expr0 in
      let locals = local_bindings body in
      let super = Ast_iterator.default_iterator in
      let expr it e =
        (match e.pexp_desc with
        | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, args) -> (
          match callee ~current_module:module_ txt with
          | Some target ->
            if
              List.exists
                (fun (_, a) -> not (Sset.is_empty (Sset.inter params (arg_flow locals a))))
                args
            then out := { ed_fn = (module_, fname); ed_callee = target } :: !out
          | None -> ())
        | _ -> ());
        super.expr it e
      in
      let it = { super with expr } in
      it.expr it body
    end
  in
  Syntax.iter_top_bindings
    (fun vb ->
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt; _ } -> scan_fn txt vb.pvb_expr
      | _ -> ())
    str;
  { su_edges = List.rev !out }

(* ------------------------------------------------------------------ *)
(* Link: fixpoint over call-graph edges                                *)
(* ------------------------------------------------------------------ *)

type spawners = Sset.t  (* "Module.fn" *)

let key (m, f) = m ^ "." ^ f

let base_spawners =
  [
    ("Domain", "spawn");
    ("Pool", "map_list");
    ("Loop", "post");
  ]

let link ~(edges : summary list) : spawners =
  let all = List.concat_map (fun s -> s.su_edges) edges in
  let rec fix spawners =
    let grown =
      List.fold_left
        (fun acc e ->
          if Sset.mem (key e.ed_callee) acc then Sset.add (key e.ed_fn) acc else acc)
        spawners all
    in
    if Sset.equal grown spawners then spawners else fix grown
  in
  fix (Sset.of_list (List.map key base_spawners))

(* ------------------------------------------------------------------ *)
(* Per-file check                                                      *)
(* ------------------------------------------------------------------ *)

(* Mutating applications: (function tail, owner constraint option). *)
let mutator_target comps args =
  let first_pos () =
    List.find_map
      (fun (lbl, a) ->
        match lbl with
        | Asttypes.Nolabel -> (
          match (Syntax.strip a).pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } -> Some x
          | _ -> None)
        | _ -> None)
      args
  in
  match List.rev comps with
  | [ ":=" ] | [ "incr" ] | [ "decr" ] -> first_pos ()
  | "set" :: ("Array" | "Bytes") :: _ -> first_pos ()
  | ("replace" | "add" | "remove" | "reset" | "clear") :: ("Hashtbl" | "Tbl") :: _ ->
    first_pos ()
  | fn :: "Buffer" :: _ when Scope.starts_with ~prefix:"add_" fn -> first_pos ()
  | ("clear" | "reset" | "truncate") :: "Buffer" :: _ -> first_pos ()
  | ("push" | "add" | "pop" | "take" | "clear" | "transfer") :: ("Queue" | "Stack") :: _ ->
    first_pos ()
  | "fill" :: ("Array" | "Bytes") :: _ | "blit" :: ("Array" | "Bytes") :: _ ->
    first_pos ()
  | _ -> None

(* Analyse one task closure body.  [bound] holds names bound inside the
   closure (task-local); [mutables] maps enclosing-scope locals to the
   mutable constructor they were bound to. *)
let check_closure ~add ~mutables closure =
  let mutex = function _ :: "Mutex" :: _ -> true | _ -> false in
  if not (List.exists (fun path -> mutex (List.rev path)) (Syntax.idents closure)) then begin
    let reported = ref Sset.empty in
    let report ~loc rule name what =
      if not (Sset.mem name !reported) then begin
        reported := Sset.add name !reported;
        add ~loc rule name what
      end
    in
    let rec walk bound e =
      match e.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; loc } ->
        if (not (Sset.mem x bound)) && Smap.mem x mutables then
          report ~loc "R5-capture" x (Smap.find x mutables)
      | Pexp_fun (_, default, pat, body) ->
        Option.iter (walk bound) default;
        walk (Sset.union bound (Sset.of_list (pat_names pat))) body
      | Pexp_function cases -> walk_cases bound cases
      | Pexp_let (rf, vbs, body) ->
        let bound' =
          List.fold_left
            (fun acc vb -> Sset.union acc (Sset.of_list (pat_names vb.pvb_pat)))
            bound vbs
        in
        let inner = match rf with Asttypes.Recursive -> bound' | Nonrecursive -> bound in
        List.iter (fun vb -> walk inner vb.pvb_expr) vbs;
        walk bound' body
      | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
        walk bound scrut;
        walk_cases bound cases
      | Pexp_setfield (target, _, value) ->
        (match (Syntax.strip target).pexp_desc with
        | Pexp_ident { txt = Longident.Lident x; loc } when not (Sset.mem x bound) ->
          report ~loc "R5-mutate" x "mutable field assignment"
        | _ -> walk bound target);
        walk bound value
      | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) ->
        (match mutator_target (Longident.flatten txt) args with
        | Some x when not (Sset.mem x bound) ->
          let loc =
            (* anchor on the mutated identifier if we can find it *)
            List.fold_left
              (fun acc (_, a) ->
                match (Syntax.strip a).pexp_desc with
                | Pexp_ident { txt = Longident.Lident y; loc } when String.equal y x ->
                  Some loc
                | _ -> acc)
              None args
            |> Option.value ~default:f.pexp_loc
          in
          report ~loc "R5-mutate" x "mutation through a captured variable"
        | _ -> ());
        walk bound f;
        List.iter (fun (_, a) -> walk bound a) args
      | Pexp_for (pat, lo, hi, _, body) ->
        walk bound lo;
        walk bound hi;
        walk (Sset.union bound (Sset.of_list (pat_names pat))) body
      | _ -> fallback bound e
    and walk_cases bound cases =
      List.iter
        (fun c ->
          let b = Sset.union bound (Sset.of_list (pat_names c.pc_lhs)) in
          Option.iter (walk b) c.pc_guard;
          walk b c.pc_rhs)
        cases
    and fallback bound e =
      (* Structural recursion for the remaining forms via the iterator,
         re-entering [walk] so binders stay tracked. *)
      let super = Ast_iterator.default_iterator in
      let expr _it child = walk bound child in
      let it = { super with expr } in
      super.expr it e
    in
    match (Syntax.strip closure).pexp_desc with
    | Pexp_fun _ | Pexp_function _ -> walk Sset.empty (Syntax.strip closure)
    | _ -> ()
  end

let check (spawners : spawners) ~rel (str : structure) : Finding.t list =
  let module_ = Scope.module_name rel in
  let out = ref [] in
  let add ~loc rule name what =
    let message =
      Printf.sprintf
        "%s '%s' (%s) is shared with other domains by this task closure; make it Atomic.t, \
         guard it with a mutex, or allocate it inside the task"
        (match rule with "R5-capture" -> "captured mutable local" | _ -> "captured variable")
        name what
    in
    out := Finding.at ~file:rel ~loc ~rule ~ident:name message :: !out
  in
  (* Walk with an environment of visibly-mutable locals in scope, and of
     the local functions in scope, each with the mutable locals its body
     can see. *)
  let rec walk mutables funs e =
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> walk mutables funs vb.pvb_expr) vbs;
      let mutables' =
        List.fold_left
          (fun acc vb ->
            match
              (vb.pvb_pat.ppat_desc, Syntax.allocation ~atomic:false (Syntax.strip vb.pvb_expr))
            with
            | Ppat_var { txt; _ }, Some what -> Smap.add txt what acc
            | _ -> acc)
          mutables vbs
      in
      let funs' =
        List.fold_left
          (fun acc vb ->
            match (vb.pvb_pat.ppat_desc, (Syntax.strip vb.pvb_expr).pexp_desc) with
            | Ppat_var { txt; _ }, (Pexp_fun _ | Pexp_function _) ->
              Smap.add txt (vb.pvb_expr, mutables) acc
            | Ppat_var { txt; _ }, _ -> Smap.remove txt acc
            | _ -> acc)
          funs vbs
      in
      walk mutables' funs' body
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as f), args) ->
      (match callee ~current_module:module_ txt with
      | Some target when Sset.mem (key target) spawners ->
        List.iter
          (fun (_, a) ->
            match (Syntax.strip a).pexp_desc with
            | Pexp_fun _ | Pexp_function _ -> check_closure ~add ~mutables a
            | Pexp_ident { txt = Longident.Lident x; _ } -> (
              match Smap.find_opt x funs with
              | Some (def, seen) -> check_closure ~add ~mutables:seen def
              | None -> ())
            | _ -> ())
          args
      | _ -> ());
      walk mutables funs f;
      List.iter (fun (_, a) -> walk mutables funs a) args
    | Pexp_fun (_, default, _, body) ->
      Option.iter (walk mutables funs) default;
      walk mutables funs body
    | Pexp_function cases | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      (match e.pexp_desc with
      | Pexp_match (scrut, _) | Pexp_try (scrut, _) -> walk mutables funs scrut
      | _ -> ());
      List.iter
        (fun c ->
          Option.iter (walk mutables funs) c.pc_guard;
          walk mutables funs c.pc_rhs)
        cases
    | Pexp_sequence (a, b) ->
      walk mutables funs a;
      walk mutables funs b
    | Pexp_ifthenelse (c, t, e_opt) ->
      walk mutables funs c;
      walk mutables funs t;
      Option.iter (walk mutables funs) e_opt
    | _ ->
      let super = Ast_iterator.default_iterator in
      let expr _it child = walk mutables funs child in
      let it = { super with expr } in
      super.expr it e
  in
  Syntax.iter_top_bindings (fun vb -> walk Smap.empty Smap.empty vb.pvb_expr) str;
  List.rev !out
