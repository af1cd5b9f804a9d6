type bound = { attr : string; lower : int option; upper : int option }

type table = { name : string; bounds : bound list; master_dc : int }

type t = (string, table) Hashtbl.t

let create tables =
  let t = Hashtbl.create (List.length tables) in
  List.iter
    (fun tbl ->
      if Hashtbl.mem t tbl.name then
        invalid_arg ("Schema.create: duplicate table " ^ tbl.name);
      Hashtbl.add t tbl.name tbl)
    tables;
  t

let table t name = Hashtbl.find t name

let tables t = List.map snd (Mdcc_util.Table.sorted_bindings ~compare:String.compare t)

let bounds_of t key = (table t key.Key.table).bounds

let master_dc t key = (table t key.Key.table).master_dc

let check_bound b v =
  (match b.lower with None -> true | Some lo -> v >= lo)
  && match b.upper with None -> true | Some hi -> v <= hi

let check_value t key value =
  List.for_all (fun b -> check_bound b (Value.get_int value b.attr)) (bounds_of t key)
