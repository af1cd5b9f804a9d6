type t = { node : int option; context : string; message : string }

exception Violation of t

let to_string v =
  Printf.sprintf "invariant violation%s in %s: %s"
    (match v.node with Some n -> Printf.sprintf " at node%d" n | None -> "")
    v.context v.message

let () =
  Printexc.register_printer (function
    | Violation v -> Some (to_string v)
    | _ -> None)

let default_sink (_ : t) = ()

(* The sink is domain-local so parallel chaos runs can each record
   violations into their own history without cross-talk. *)
let sink : (t -> unit) Domain.DLS.key = Domain.DLS.new_key (fun () -> default_sink)

let set_sink f = Domain.DLS.set sink f

let reset_sink () = Domain.DLS.set sink default_sink

let fire v =
  (Domain.DLS.get sink) v;
  raise (Violation v)

let violate ?node ~context fmt =
  Printf.ksprintf (fun message -> fire { node; context; message }) fmt
