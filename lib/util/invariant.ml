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

let violate ?node ~context fmt =
  Printf.ksprintf (fun message -> raise (Violation { node; context; message })) fmt
