(* R5 fixture: a local function handed to a spawner by name is analysed
   like a closure literal, against the locals in scope where it is defined. *)
let bad_by_name ~jobs xs =
  let seen = ref 0 in
  let count x = seen := !seen + x in
  Pool.map_list ~jobs xs ~f:count

let bad_rec_by_name n =
  let slots = Array.make n 0 in
  let rec claim () = slots.(0) <- n; claim () in
  Domain.spawn claim
