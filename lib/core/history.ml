type entry = { at : float; node : int; event : Event.t }

type t = { mutable rev : entry list; mutable count : int }

let create () = { rev = []; count = 0 }

let record t ~at ~node event =
  if Event.in_history event then begin
    t.rev <- { at; node; event } :: t.rev;
    t.count <- t.count + 1
  end

let events t = List.rev t.rev

let iter_newest_first f t = List.iter f t.rev

let length t = t.count
