(* A fork-join map on OCaml 5 domains.

   [map_list ~jobs xs ~f] spawns [min jobs n - 1] helper domains for the
   map alone.  The caller and the helpers claim indices from one atomic
   cursor, one index per bump, until it runs past the end; results land in
   a slot keyed by index, so the output is in list order no matter which
   domain ran what, exactly what the sequential loop returns.  The caller
   then joins every helper.  With [jobs = 1] or a single element nothing
   is spawned and the map is a plain loop on the calling domain. *)

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

type 'a slot = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

let map_list ~jobs xs ~f =
  if jobs < 1 then Invariant.violate ~context:"Pool.map_list" "jobs %d < 1" jobs;
  let arr = Array.of_list xs in
  let n = Array.length arr in
  let slots = Array.make n Pending in
  let next = Atomic.make 0 in
  (* [f] never escapes a claim: its exception is the slot's, not the domain's. *)
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      slots.(i) <-
        (match f arr.(i) with
        | v -> Done v
        | exception e -> Failed (e, Printexc.get_raw_backtrace ()));
      claim ()
    end
  in
  let helpers = List.init (max 0 (min jobs n - 1)) (fun _ -> Domain.spawn claim) in
  claim ();
  List.iter Domain.join helpers;
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
           Invariant.violate ~context:"Pool.map_list" "task slot left unfilled")
       slots)

let chunks n xs =
  if n < 1 then Invariant.violate ~context:"Pool.chunks" "n %d < 1" n;
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  match xs with [] -> [] | x :: rest -> go [] [ x ] 1 rest
