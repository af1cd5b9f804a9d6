type id = string

module Map = Map.Make (String)

type abort_reason = Conflict | Constraint_violation

type outcome = Committed | Aborted of abort_reason

type t = { id : id; updates : (Key.t * Update.t) list }

let rec mem_key key = function
  | [] -> false
  | (k, _) :: rest -> Key.equal key k || mem_key key rest

(* Pairwise, so the check allocates nothing.  It is quadratic in the
   write-set's length: generated write-sets are a handful of keys, and
   the wire handler caps a [txn] at [Handler.max_txn_ops] writes. *)
let rec has_duplicate = function
  | [] -> false
  | (key, _) :: rest -> mem_key key rest || has_duplicate rest

let make ~id ~updates =
  if has_duplicate updates then invalid_arg "Txn.make: duplicate key in write-set";
  { id; updates }

let serializable ~id ~reads ~updates =
  let written = Key.Set.of_list (List.map fst updates) in
  let guards =
    List.filter_map
      (fun (key, vread) ->
        if Key.Set.mem key written then None
        else Some (key, Update.Read_guard { vread }))
      reads
  in
  make ~id ~updates:(updates @ guards)

let keys t = List.map fst t.updates

let is_read_only t = t.updates = []

let commutative_only t = List.for_all (fun (_, up) -> Update.is_commutative up) t.updates

let reason_to_string = function
  | Conflict -> "conflict"
  | Constraint_violation -> "constraint-violation"

let pp_outcome ppf = function
  | Committed -> Format.pp_print_string ppf "committed"
  | Aborted r -> Format.fprintf ppf "aborted(%s)" (reason_to_string r)

let pp ppf t =
  Format.fprintf ppf "txn %s {%a}" t.id
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (k, up) -> Format.fprintf ppf "%a: %a" Key.pp k Update.pp up))
    t.updates
