(* A work-stealing worker pool on OCaml 5 domains.

   Tasks are indexed [0, count): a batch publishes one shared cursor and
   every participant — the spawned worker domains plus the calling domain —
   steals the next unclaimed index with an atomic fetch-and-add until the
   batch is drained.  Results are written to a slot keyed by task index, so
   the merged output is in task order no matter which domain ran what: a
   parallel [map_list] returns exactly what the sequential loop would.

   The pool is persistent: domains are spawned once at [create] and parked
   on a condition variable between batches, so per-batch overhead is a
   broadcast, not a spawn.  With [jobs = 1] no domains are spawned at all
   and [map_list] degenerates to a plain sequential loop. *)

type batch = {
  b_run : int -> unit;  (* never raises; exceptions are captured in slots *)
  b_count : int;
  b_next : int Atomic.t;
  b_completed : int Atomic.t;
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  has_work : Condition.t;
  all_done : Condition.t;
  mutable batch : batch option;
  mutable generation : int;
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  (* Lifetime stats, read by the profiler layer (lib/obs cannot be a
     dependency here — it already depends on this library).  Atomics: the
     claim loop updates them from every participating domain. *)
  st_batches : int Atomic.t;
  st_tasks : int Atomic.t;
  st_stolen : int Atomic.t;
}

type stats = { batches : int; tasks : int; stolen : int }

let stats t =
  {
    batches = Atomic.get t.st_batches;
    tasks = Atomic.get t.st_tasks;
    stolen = Atomic.get t.st_stolen;
  }

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

let jobs t = t.jobs

(* Claim-and-run until the batch cursor runs past the end, one index per
   cursor bump.  Whoever completes the last task retires the batch and
   wakes the caller. *)
let drain ?(stolen = false) t b =
  let rec claim () =
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i < b.b_count then begin
      Atomic.incr t.st_tasks;
      if stolen then Atomic.incr t.st_stolen;
      b.b_run i;
      if 1 + Atomic.fetch_and_add b.b_completed 1 = b.b_count then begin
        Mutex.lock t.mutex;
        t.batch <- None;
        Condition.broadcast t.all_done;
        Mutex.unlock t.mutex
      end;
      claim ()
    end
  in
  claim ()

let worker t =
  let seen = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    while
      (not t.stop) && (Option.is_none t.batch || t.generation = !seen)
    do
      Condition.wait t.has_work t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      seen := t.generation;
      let b = t.batch in
      Mutex.unlock t.mutex;
      (match b with Some b -> drain ~stolen:true t b | None -> ());
      loop ()
    end
  in
  loop ()

let create ?jobs () =
  let jobs =
    match jobs with
    | Some j ->
      if j < 1 then Invariant.violate ~context:"Pool.create" "jobs %d < 1" j;
      j
    | None -> default_jobs ()
  in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      has_work = Condition.create ();
      all_done = Condition.create ();
      batch = None;
      generation = 0;
      stop = false;
      domains = [];
      st_batches = Atomic.make 0;
      st_tasks = Atomic.make 0;
      st_stolen = Atomic.make 0;
    }
  in
  if jobs > 1 then
    t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.has_work;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.domains;
  t.domains <- []

let run_batch t ~count ~run =
  if count > 0 then begin
    Atomic.incr t.st_batches;
    if t.jobs = 1 || count = 1 then begin
      Atomic.fetch_and_add t.st_tasks count |> ignore;
      for i = 0 to count - 1 do
        run i
      done
    end
    else begin
      let b =
        {
          b_run = run;
          b_count = count;
          b_next = Atomic.make 0;
          b_completed = Atomic.make 0;
        }
      in
      Mutex.lock t.mutex;
      if t.stop then begin
        Mutex.unlock t.mutex;
        Invariant.violate ~context:"Pool.run_batch" "pool already shut down"
      end;
      if Option.is_some t.batch then begin
        Mutex.unlock t.mutex;
        Invariant.violate ~context:"Pool.run_batch" "concurrent map on the same pool"
      end;
      t.batch <- Some b;
      t.generation <- t.generation + 1;
      Condition.broadcast t.has_work;
      Mutex.unlock t.mutex;
      (* The caller steals tasks too: jobs = N means N domains working. *)
      drain t b;
      Mutex.lock t.mutex;
      while Atomic.get b.b_completed < b.b_count do
        Condition.wait t.all_done t.mutex
      done;
      Mutex.unlock t.mutex
    end
  end

type 'a slot = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

let map_list t xs ~f =
  let arr = Array.of_list xs in
  let slots = Array.make (Array.length arr) Pending in
  run_batch t ~count:(Array.length arr) ~run:(fun i ->
      slots.(i) <-
        (match f arr.(i) with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ())));
  (* Re-raise deterministically: the lowest-index failure wins, matching
     what a sequential loop would have raised first. *)
  Array.iter
    (function
      | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
      | Pending | Done _ -> ())
    slots;
  Array.to_list
    (Array.map
       (function
         | Done v -> v
         | Pending | Failed _ ->
           Invariant.violate ~context:"Pool.run_batch" "task slot left unfilled")
       slots)

let chunks n xs =
  if n < 1 then Invariant.violate ~context:"Pool.chunks" "n %d < 1" n;
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  match xs with [] -> [] | x :: rest -> go [] [ x ] 1 rest

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
