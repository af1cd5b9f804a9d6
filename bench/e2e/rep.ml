(* The result of one repetition of a workload, as a child process reports
   it to the parent on its standard output (one JSON line). *)

module Json = Mdcc_obs.Json

type t = {
  attempted : int;  (* operations issued: transactions, runs or requests *)
  failed : int;  (* operations without a valid answer *)
  errors : string list;  (* failed output checks; empty when correct *)
  values : (string * float) list;  (* metric name -> value *)
  det : (string * float) list;
      (* deterministic results a traced rerun of the same seed must repeat *)
  cpu_s : float;  (* process CPU of the measured phase *)
  info : (string * Json.t) list;  (* extra detail for the report files *)
}

let value t name = List.assoc_opt name t.values

let floats l = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) l)

let to_json t =
  Json.Obj
    [
      ("attempted", Json.Int t.attempted);
      ("failed", Json.Int t.failed);
      ("errors", Json.List (List.map (fun e -> Json.Str e) t.errors));
      ("values", floats t.values);
      ("det", floats t.det);
      ("cpu_s", Json.Float t.cpu_s);
      ("info", Json.Obj t.info);
    ]

let of_json j =
  let nums name =
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Doc.num v))
      (Doc.obj_fields (Option.value (Json.member name j) ~default:(Json.Obj [])))
  in
  let int name = int_of_float (Option.value (Doc.member_num name j) ~default:0.0) in
  {
    attempted = int "attempted";
    failed = int "failed";
    errors =
      List.filter_map
        (function Json.Str s -> Some s | _ -> None)
        (Json.to_list (Option.value (Json.member "errors" j) ~default:(Json.List [])));
    values = nums "values";
    det = nums "det";
    cpu_s = Option.value (Doc.member_num "cpu_s" j) ~default:0.0;
    info = Doc.obj_fields (Option.value (Json.member "info" j) ~default:(Json.Obj []));
  }
