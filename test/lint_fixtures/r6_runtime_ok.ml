(* R6-runtime negative fixture: a step that reads the clock cell its
   driver filled and answers a verdict. *)
type verdict = Voted | Refused

let stamp (now : Mdcc_sim.Engine.stamp) = now.Mdcc_sim.Engine.time

let step promised ballot = if ballot >= promised then Voted else Refused

let unknown () = Messages.Status_unknown
