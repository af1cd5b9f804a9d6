module Smap = Map.Make (String)

type scalar = Int of int | Str of string

type t = scalar Smap.t

let empty = Smap.empty

let of_list bindings = List.fold_left (fun m (k, v) -> Smap.add k v m) empty bindings

let to_list t = Smap.bindings t

let fold f t init = Smap.fold f t init

let get t attr = Smap.find_opt attr t

let find t attr = Smap.find attr t

(* [find] and its exception: acceptors read bounded attributes on every
   proposal, and [find_opt] would allocate a [Some] per read. *)
let get_int t attr =
  match Smap.find attr t with
  | Int i -> i
  | Str _ -> invalid_arg ("Value.get_int: attribute " ^ attr ^ " is a string")
  | exception Not_found -> 0

let set t attr v = Smap.add attr v t

let add_delta t attr d = Smap.add attr (Int (get_int t attr + d)) t

let scalar_equal a b =
  match (a, b) with
  | Int x, Int y -> Int.equal x y
  | Str x, Str y -> String.equal x y
  | Int _, Str _ | Str _, Int _ -> false

let equal = Smap.equal scalar_equal

let pp ppf t =
  let pp_scalar ppf = function
    | Int i -> Format.pp_print_int ppf i
    | Str s -> Format.fprintf ppf "%S" s
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
       (fun ppf (k, v) -> Format.fprintf ppf "%s=%a" k pp_scalar v))
    (to_list t)
