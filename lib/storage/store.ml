type row = {
  mutable value : Value.t;
  mutable version : int;
  mutable exists : bool;
}

type t = { schema : Schema.t; rows : row Key.Tbl.t }

let create schema = { schema; rows = Key.Tbl.create 1024 }

let schema t = t.schema

let find t key = Key.Tbl.find_opt t.rows key

(* Runs on every protocol message: [find] with its exception rather than
   [find_opt], whose [Some] would be allocated per call. *)
let ensure t key =
  match Key.Tbl.find t.rows key with
  | row -> row
  | exception Not_found ->
    let row = { value = Value.empty; version = 0; exists = false } in
    Key.Tbl.add t.rows key row;
    row

let read t key =
  match Key.Tbl.find_opt t.rows key with
  | Some row when row.exists -> Some (row.value, row.version)
  | Some _ | None -> None

let version t key = match Key.Tbl.find_opt t.rows key with Some r -> r.version | None -> 0

let validate t key (up : Update.t) =
  let row = find t key in
  match up with
  | Update.Insert _ -> ( match row with None -> true | Some r -> not r.exists)
  | Update.Physical { vread; _ } | Update.Delete { vread } -> (
    match row with Some r -> r.exists && r.version = vread | None -> false)
  | Update.Delta _ -> ( match row with Some r -> r.exists | None -> false)
  | Update.Read_guard { vread } -> (
    (* Reading a missing record is "version 0" (or the tombstone's). *)
    match row with Some r -> r.version = vread | None -> vread = 0)

let apply t key (up : Update.t) =
  let row = ensure t key in
  match up with
  | Update.Insert v ->
    row.value <- v;
    row.exists <- true;
    row.version <- row.version + 1
  | Update.Physical { vread; value } ->
    row.value <- value;
    row.exists <- true;
    (* Version jumps to vread + 1 so a replica that missed an intermediate
       physical update still converges (the new value is absolute). *)
    row.version <- vread + 1
  | Update.Delete { vread } ->
    row.value <- Value.empty;
    row.exists <- false;
    row.version <- vread + 1
  | Update.Delta ds ->
    row.value <- List.fold_left (fun v (attr, d) -> Value.add_delta v attr d) row.value ds;
    row.version <- row.version + 1
  | Update.Read_guard _ -> ()

let size t = Key.Tbl.length t.rows

(* Iteration is in key order, not hash order: anti-entropy sweeps and scans
   walk the store, and their message order must be a pure function of the
   store's contents for chaos seeds to replay (mdcc_lint R1). *)
let iter t f = Key.Tbl.sorted_iter f t.rows

let fold t ~init ~f =
  List.fold_left (fun acc (k, row) -> f k row acc) init (Key.Tbl.sorted_bindings t.rows)
