type t = { table : string; id : string }

let make ~table ~id = { table; id }

let compare a b =
  match String.compare a.table b.table with 0 -> String.compare a.id b.id | c -> c

let equal a b = compare a b = 0

(* The record has the pair [(table, id)]'s block shape (tag 0, two
   fields), so this is [Hashtbl.hash (t.table, t.id)] — the value that
   places keys in partitions — without building the pair per lookup. *)
let hash (t : t) = Hashtbl.hash t

let to_string t = t.table ^ "/" ^ t.id

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

  (* Only the survivors are consed and sorted, so a walk that selects
     nothing allocates nothing per binding. *)
  let sorted_filter_map f t =
    fold (fun k v acc -> match f k v with Some b -> (k, b) :: acc | None -> acc) t []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
end
