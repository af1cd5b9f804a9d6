open Mdcc_storage

type ctx = {
  rng : Mdcc_util.Rng.t;
  dc : int;
  client_id : int;
  mutable seq : int;
}

type t = {
  name : string;
  prepare : ctx -> Mdcc_protocols.Harness.t -> (Txn.t -> unit) -> unit;
}

let make_ctx ~rng ~dc ~client_id = { rng; dc; client_id; seq = 0 }

let fresh_txid ctx =
  ctx.seq <- ctx.seq + 1;
  Mdcc_util.Decimal.append2 "c" ctx.client_id "-" ctx.seq

let read_many (harness : Mdcc_protocols.Harness.t) ~dc keys k =
  match keys with
  | [] -> k []
  | _ ->
    let remaining = ref (List.length keys) in
    let results = ref [] in
    List.iter
      (fun key ->
        harness.Mdcc_protocols.Harness.read_local ~dc key (fun r ->
            results := (key, r) :: !results;
            decr remaining;
            if !remaining = 0 then k !results))
      keys
