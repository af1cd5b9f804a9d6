(* JSON rendering with exact floats.

   [Mdcc_obs.Json.to_string] prints floats with six significant digits,
   which suits byte-pinned reports but not measurements: every number this
   benchmark writes must keep all its digits.  Parsing goes through
   [Mdcc_obs.Json.parse], which reads floats at full precision. *)

module Json = Mdcc_obs.Json

(* Shortest decimal form that reads back as the same float. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else begin
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || Float.equal (float_of_string s) f then s else go (p + 1)
    in
    go 12
  end

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Compact by default; [pretty] puts every object member and every list
   element that is itself a list or object on its own indented line. *)
let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  let nl depth =
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make (depth * 2) ' ')
    end
  in
  let rec go depth = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Int i -> Buffer.add_string buf (string_of_int i)
    | Json.Float f ->
      Buffer.add_string buf (if Float.is_finite f then float_repr f else "null")
    | Json.Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Json.List [] -> Buffer.add_string buf "[]"
    | Json.Obj [] -> Buffer.add_string buf "{}"
    | Json.List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          (* Lists of scalars stay on one line. *)
          (match x with Json.List _ | Json.Obj _ -> nl (depth + 1) | _ -> ());
          go (depth + 1) x)
        items;
      Buffer.add_char buf ']'
    | Json.Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, x) ->
          if i > 0 then Buffer.add_char buf ',';
          nl (depth + 1);
          go depth (Json.Str k);
          Buffer.add_string buf (if pretty then ": " else ":");
          go (depth + 1) x)
        fields;
      nl depth;
      Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.contents buf

let to_file path v =
  let oc = open_out path in
  output_string oc (to_string ~pretty:true v);
  output_char oc '\n';
  close_out oc

let of_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok v -> v | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let num = function
  | Json.Float f -> Some f
  | Json.Int i -> Some (Float.of_int i)
  | _ -> None

let member_num name v = Option.bind (Json.member name v) num

let obj_fields = function Json.Obj fields -> fields | _ -> []
