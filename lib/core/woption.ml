open Mdcc_storage

type decision = Accepted | Rejected

type t = {
  txid : Txn.id;
  key : Key.t;
  update : Update.t;
  write_set : Key.t list;
  coordinator : int;
}

let is_commutative t = Update.is_commutative t.update

let of_ok ok = if ok then Accepted else Rejected

let decision_equal a b =
  match (a, b) with
  | Accepted, Accepted | Rejected, Rejected -> true
  | Accepted, Rejected | Rejected, Accepted -> false

let pp_decision ppf = function
  | Accepted -> Format.pp_print_string ppf "+"
  | Rejected -> Format.pp_print_string ppf "-"

let pp ppf t =
  Format.fprintf ppf "w(%s, %a, %a)" t.txid Key.pp t.key Update.pp t.update
