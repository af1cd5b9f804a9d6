let render ~at ~tag body = Printf.sprintf "[%10.2f] %-12s %s" at tag body

let stdout_sink line = print_endline line

(* Trace state is domain-local: a chaos worker re-running a violating seed
   with tracing enabled must not turn tracing on (or redirect the sink) for
   runs executing concurrently on sibling domains.  Fresh domains start
   from the same defaults a fresh process would. *)
type state = { mutable flag : bool; mutable sink : string -> unit }

let key : state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { flag = false; sink = stdout_sink })

let state () = Domain.DLS.get key

let enable () = (state ()).flag <- true

let disable () = (state ()).flag <- false

let enabled () = (state ()).flag

let set_sink f = (state ()).sink <- f

let reset_sink () = (state ()).sink <- stdout_sink

(* A handle is this domain's state cell, resolved once.  Runtimes hold one
   so the per-trace-point liveness check is one field load, not a DLS
   lookup — and the check happens *before* any formatting, so a disabled
   trace point costs no allocation at all. *)
type handle = state

let handle = state

let active (h : handle) = h.flag

let record_at (h : handle) ~at ~tag body = if h.flag then h.sink (render ~at ~tag body)
