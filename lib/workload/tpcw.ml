open Mdcc_storage
module Rng = Mdcc_util.Rng

type params = { items : int; commutative : bool; max_cart : int }

let default = { items = 10_000; commutative = true; max_cart = 5 }

let schema =
  Schema.create
    [
      {
        Schema.name = "item";
        bounds = [ { Schema.attr = "stock"; lower = Some 0; upper = None } ];
        master_dc = 0;
      };
      { Schema.name = "customer"; bounds = []; master_dc = 0 };
      { Schema.name = "cart"; bounds = []; master_dc = 0 };
      { Schema.name = "order"; bounds = []; master_dc = 0 };
      { Schema.name = "order_line"; bounds = []; master_dc = 0 };
    ]

let item_key i = Key.make ~table:"item" ~id:(string_of_int i)

let customer_key c = Key.make ~table:"customer" ~id:(string_of_int c)

let cart_key c = Key.make ~table:"cart" ~id:(string_of_int c)

let num_customers p = Stdlib.max 1 (p.items / 10)

let rows p ~rng =
  let items =
    List.init p.items (fun i ->
        ( item_key i,
          Value.of_list
            [
              ("stock", Value.Int (500 + Rng.int rng 200));
              ("price", Value.Int (Rng.int_in rng 1 100));
            ] ))
  in
  let customers =
    List.init (num_customers p) (fun c ->
        (customer_key c, Value.of_list [ ("name", Value.Str (Printf.sprintf "cust-%d" c)) ]))
  in
  let carts =
    List.init (num_customers p) (fun c ->
        (cart_key c, Value.of_list [ ("lines", Value.Int 0) ]))
  in
  items @ customers @ carts

let pick_items p rng k =
  let rec distinct acc n =
    if n <= 0 then acc
    else begin
      let i = Rng.int rng p.items in
      if List.mem i acc then distinct acc n else distinct (i :: acc) (n - 1)
    end
  in
  distinct [] (Stdlib.min k p.items)

(* Buy-confirm: stock decrements + order insert + one order-line per item. *)
let buy_confirm p (ctx : Generator.ctx) harness k =
  let txid = Generator.fresh_txid ctx in
  let cart = pick_items p ctx.rng (Rng.int_in ctx.rng 1 p.max_cart) in
  let quantities = List.map (fun i -> (i, Rng.int_in ctx.rng 1 3)) cart in
  let order = (Key.make ~table:"order" ~id:txid, Update.Insert (Value.of_list [ ("total", Value.Int 0) ])) in
  let line_prefix = txid ^ "-" in
  let lines =
    List.mapi
      (fun n (i, q) ->
        ( Key.make ~table:"order_line" ~id:(Mdcc_util.Decimal.append line_prefix n),
          Update.Insert (Value.of_list [ ("item", Value.Int i); ("qty", Value.Int q) ]) ))
      quantities
  in
  if p.commutative then begin
    let decs =
      List.map (fun (i, q) -> (item_key i, Update.Delta [ ("stock", -q) ])) quantities
    in
    k (Txn.make ~id:txid ~updates:((order :: lines) @ decs))
  end
  else
    Generator.read_many harness ~dc:ctx.dc
      (List.map (fun (i, _) -> item_key i) quantities)
      (fun results ->
        let decs =
          List.map
            (fun (i, q) ->
              let key = item_key i in
              match List.assoc key results with
              | Some (value, version) ->
                let stock = Value.get_int value "stock" in
                ( key,
                  Update.Physical
                    { vread = version; value = Value.set value "stock" (Value.Int (stock - q)) }
                )
              | None -> (key, Update.Physical { vread = -1; value = Value.empty }))
            quantities
        in
        k (Txn.make ~id:txid ~updates:((order :: lines) @ decs)))

(* Buy-request: read-modify-write of the customer's cart record. *)
let buy_request p (ctx : Generator.ctx) harness k =
  let txid = Generator.fresh_txid ctx in
  let cust = Rng.int ctx.rng (num_customers p) in
  let key = cart_key cust in
  Generator.read_many harness ~dc:ctx.dc [ key ] (fun results ->
      match List.assoc key results with
      | Some (value, version) ->
        let lines = Value.get_int value "lines" in
        k
          (Txn.make ~id:txid
             ~updates:
               [
                 ( key,
                   Update.Physical
                     { vread = version; value = Value.set value "lines" (Value.Int (lines + 1)) }
                 );
               ])
      | None ->
        k (Txn.make ~id:txid ~updates:[ (key, Update.Insert (Value.of_list [ ("lines", Value.Int 1) ])) ]))

let customer_registration (ctx : Generator.ctx) _harness k =
  let txid = Generator.fresh_txid ctx in
  let key = Key.make ~table:"customer" ~id:("new-" ^ txid) in
  k
    (Txn.make ~id:txid
       ~updates:[ (key, Update.Insert (Value.of_list [ ("name", Value.Str txid) ])) ])

(* Admin-update: change an item's price (never its stock). *)
let admin_update p (ctx : Generator.ctx) harness k =
  let txid = Generator.fresh_txid ctx in
  let key = item_key (Rng.int ctx.rng p.items) in
  Generator.read_many harness ~dc:ctx.dc [ key ] (fun results ->
      match List.assoc key results with
      | Some (value, version) ->
        k
          (Txn.make ~id:txid
             ~updates:
               [
                 ( key,
                   Update.Physical
                     {
                       vread = version;
                       value = Value.set value "price" (Value.Int (Rng.int_in ctx.rng 1 100));
                     } );
               ])
      | None -> k (Txn.make ~id:txid ~updates:[]))

(* Browsing: a handful of local reads, no writes (not measured). *)
let browse p (ctx : Generator.ctx) harness k =
  let txid = Generator.fresh_txid ctx in
  let keys = List.map item_key (pick_items p ctx.rng 3) in
  Generator.read_many harness ~dc:ctx.dc keys (fun _ -> k (Txn.make ~id:txid ~updates:[]))

let generator p =
  let prepare (ctx : Generator.ctx) harness k =
    (* The most write-heavy TPC-W profile: ordering mix. *)
    let r = Rng.float ctx.rng 1.0 in
    if r < 0.35 then buy_confirm p ctx harness k
    else if r < 0.60 then buy_request p ctx harness k
    else if r < 0.70 then customer_registration ctx harness k
    else if r < 0.80 then admin_update p ctx harness k
    else browse p ctx harness k
  in
  { Generator.name = "tpcw"; prepare }
