(* R5 negative fixture: local functions passed by name that keep to
   task-local state. *)
let ok_by_name ~jobs xs =
  let render x =
    let buf = Buffer.create 16 in
    Buffer.add_string buf (string_of_int x);
    Buffer.contents buf
  in
  Pool.map_list ~jobs xs ~f:render

let ok_untouched ~jobs xs =
  let total = ref 0 in
  let double x = x * 2 in
  total := List.length xs;
  Pool.map_list ~jobs xs ~f:double
