(* R5 fixture: mutable enclosing-scope state escaping into task closures. *)
let bad_capture ~jobs xs =
  let hits = Hashtbl.create 8 in
  Pool.map_list ~jobs xs ~f:(fun x -> Hashtbl.length hits + x)

let bad_mutate ~jobs xs =
  let total = ref 0 in
  Pool.map_list ~jobs xs ~f:(fun i -> total := !total + i)

let bad_setfield ~jobs row =
  Pool.map_list ~jobs [ 1; 2; 3; 4 ] ~f:(fun i -> row.version <- i)

(* Forwards its [~f] into the pool: a derived spawner the link fixpoint
   must discover, making the call below a spawn site too. *)
let derived ~jobs xs ~f = Pool.map_list ~jobs xs ~f

let bad_via_derived ~jobs xs =
  let acc = ref 0 in
  derived ~jobs xs ~f:(fun x -> acc := !acc + x)
