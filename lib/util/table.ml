(* ------------------------------------------------------------------ *)
(* Deterministic hashtable iteration                                   *)
(* ------------------------------------------------------------------ *)

(* [Hashtbl.iter]/[fold] visit bindings in hash order, which depends on the
   table's load history and the runtime's hash function — nothing a chaos
   seed controls.  Every module that needs to walk a hashtable goes through
   these sorted helpers instead (enforced by rule R1 of `mdcc_lint`); this
   module is the designated allowlisted wrapper around [Hashtbl.fold]. *)

let sorted_bindings ?(compare = Stdlib.compare) tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let sorted_iter ?compare f tbl =
  List.iter (fun (k, v) -> f k v) (sorted_bindings ?compare tbl)

let sorted_keys ?compare tbl = List.map fst (sorted_bindings ?compare tbl)

let render ~headers rows =
  let all = headers :: rows in
  let cols = List.fold_left (fun m r -> Stdlib.max m (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> width.(i) <- Stdlib.max width.(i) (String.length cell)) row)
    all;
  let buf = Buffer.create 256 in
  let emit_row row =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf cell;
        Buffer.add_string buf (String.make (width.(i) - String.length cell) ' '))
      row;
    Buffer.add_char buf '\n'
  in
  emit_row headers;
  let rule = List.mapi (fun i _ -> String.make width.(i) '-') headers in
  emit_row rule;
  List.iter emit_row rows;
  Buffer.contents buf

let print ~headers rows = print_string (render ~headers rows)

let fms v = Printf.sprintf "%.1f" v
