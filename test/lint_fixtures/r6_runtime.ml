(* R6-runtime fixture: an acceptor step that reaches its runtime. *)
let vote t now = Runtime.now_into t.runtime now

let reply t dst payload = Outbox.send t.outbox dst payload

let count t = Mdcc_obs.Obs.incr t.obs "option_accept"

let emit t ev = if Ctx.live t.stream then Ctx.emit t.stream ev

let voided txid key = Event.Voided { txid; key }
