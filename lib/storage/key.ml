type t = { table : string; id : string }

let make ~table ~id = { table; id }

let compare a b =
  match String.compare a.table b.table with 0 -> String.compare a.id b.id | c -> c

let equal a b = compare a b = 0

(* The record has the pair [(table, id)]'s block shape (tag 0, two
   fields), so this is [Hashtbl.hash (t.table, t.id)] — the value that
   places keys in partitions — without building the pair per lookup. *)
let hash (t : t) = Hashtbl.hash t

(* One string built in place: [table ^ "/" ^ id] would build the
   intermediate [table ^ "/"] first. *)
let to_string t =
  let tl = String.length t.table in
  let b = Bytes.create (tl + 1 + String.length t.id) in
  Bytes.blit_string t.table 0 b 0 tl;
  Bytes.set b tl '/';
  Bytes.blit_string t.id 0 b (tl + 1) (String.length t.id);
  Bytes.unsafe_to_string b

let pp ppf t = Format.pp_print_string ppf (to_string t)

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = struct
  include Hashtbl.Make (struct
    type nonrec t = t

    let equal = equal
    let hash = hash
  end)

  (* Deterministic iteration: hash order depends on the table's load
     history, so every observable walk goes through these (mdcc_lint R1). *)
  let sorted_bindings t =
    fold (fun k v acc -> (k, v) :: acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)

  let sorted_iter f t = List.iter (fun (k, v) -> f k v) (sorted_bindings t)

  exception Found

  (* The answer does not depend on the walk's order, so hash order is
     allowed here.  [f] goes to [iter] as is: a caller that builds it
     once walks the table allocating only [iter]'s bucket closure. *)
  let any f t = match iter f t with () -> false | exception Found -> true

  (* Only the survivors are consed and sorted, so a walk that selects
     nothing allocates nothing per binding. *)
  let sorted_filter_map f t =
    fold (fun k v acc -> match f k v with Some b -> (k, b) :: acc | None -> acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
end
