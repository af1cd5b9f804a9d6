module Table = Mdcc_util.Table

type event = {
  ev_at : float;
  ev_node : int;
  ev_name : string;
  ev_key : string option;
  ev_detail : string;
}

type span = { mutable sp_begin : float; mutable sp_events : event list (* reversed *) }

type t = { spans : (string, span) Hashtbl.t }

let create () = { spans = Hashtbl.create 64 }

let find t txid = Hashtbl.find_opt t.spans txid

let begin_txn t ~txid ~at =
  match find t txid with
  | Some sp -> if sp.sp_begin < 0.0 then sp.sp_begin <- at
  | None -> Hashtbl.replace t.spans txid { sp_begin = at; sp_events = [] }

(* [find] with its exception rather than [find_opt]: appending to a known
   span allocates only the event. *)
let event t ~txid ~at ~node ~name ?key ~detail () =
  let sp =
    match Hashtbl.find t.spans txid with
    | sp -> sp
    | exception Not_found ->
        let sp = { sp_begin = -1.0; sp_events = [] } in
        Hashtbl.replace t.spans txid sp;
        sp
  in
  sp.sp_events <-
    { ev_at = at; ev_node = node; ev_name = name; ev_key = key; ev_detail = detail }
    :: sp.sp_events

let events t ~txid =
  match find t txid with Some sp -> List.rev sp.sp_events | None -> []

let txids t = Table.sorted_keys ~compare:String.compare t.spans

let event_json ev =
  Json.Obj
    [
      ("at", Json.Float ev.ev_at);
      ("node", Json.Int ev.ev_node);
      ("name", Json.Str ev.ev_name);
      ("detail", Json.Str ev.ev_detail);
    ]

let txn_to_json t ~txid =
  let evs = events t ~txid in
  let root = List.filter (fun ev -> ev.ev_key = None) evs in
  let keyed = List.filter (fun ev -> ev.ev_key <> None) evs in
  let keys =
    List.sort_uniq String.compare
      (List.filter_map (fun ev -> ev.ev_key) keyed)
  in
  let begin_at = match find t txid with Some sp -> sp.sp_begin | None -> -1.0 in
  Json.Obj
    [
      ("txid", Json.Str txid);
      ("begin", Json.Float begin_at);
      ("events", Json.List (List.map event_json root));
      ( "keys",
        Json.List
          (List.map
             (fun k ->
               Json.Obj
                 [
                   ("key", Json.Str k);
                   ( "events",
                     Json.List
                       (List.filter_map
                          (fun ev ->
                            if ev.ev_key = Some k then Some (event_json ev)
                            else None)
                          keyed) );
                 ])
             keys) );
    ]

let to_json t = Json.List (List.map (fun txid -> txn_to_json t ~txid) (txids t))
