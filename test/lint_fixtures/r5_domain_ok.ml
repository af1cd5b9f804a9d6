(* R5 negative fixture: every closure below is domain-safe. *)
let ok_atomic ~jobs xs =
  let total = Atomic.make 0 in
  Pool.map_list ~jobs xs ~f:(fun i -> Atomic.fetch_and_add total i)

let ok_task_local ~jobs xs =
  Pool.map_list ~jobs xs ~f:(fun x ->
      let buf = Buffer.create 16 in
      Buffer.add_string buf (string_of_int x);
      Buffer.contents buf)

let ok_mutex ~jobs xs lock =
  let total = ref 0 in
  Pool.map_list ~jobs xs ~f:(fun i ->
      Mutex.lock lock;
      total := !total + i;
      Mutex.unlock lock)

let ok_immutable ~jobs xs =
  let base = 10 in
  Pool.map_list ~jobs xs ~f:(fun x -> base + x)

(* Not a spawner: same-domain iteration may touch local mutables freely. *)
let ok_sequential xs =
  let tbl = Hashtbl.create 8 in
  List.iter (fun x -> Hashtbl.replace tbl x x) xs;
  Hashtbl.length tbl
