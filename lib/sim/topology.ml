type node_id = int

type t = {
  dc_names : string array;
  node_dc : int array;
  rtt : float array array;
  intra_rtt : float;
}

let make ~dc_names ~rtt ?(intra_rtt = 1.0) ~nodes_per_dc () =
  let d = Array.length dc_names in
  if Array.length rtt <> d || Array.exists (fun row -> Array.length row <> d) rtt then
    invalid_arg "Topology.make: rtt matrix must be square and match dc_names";
  if nodes_per_dc <= 0 then invalid_arg "Topology.make: nodes_per_dc must be positive";
  let node_dc = Array.init (d * nodes_per_dc) (fun n -> n / nodes_per_dc) in
  { dc_names; node_dc; rtt; intra_rtt }

(* Approximate 2012 inter-region round-trip times in milliseconds between the
   five EC2 regions the paper deployed on.  Allocated per call rather than
   bound at top level (R4): topologies built on different worker domains
   must never share array storage. *)
let ec2_rtt () =
  [|
    (*                CA     VA     IE     SG     TK *)
    (* us-west *) [| 0.0; 80.0; 170.0; 230.0; 120.0 |];
    (* us-east *) [| 80.0; 0.0; 90.0; 250.0; 170.0 |];
    (* eu      *) [| 170.0; 90.0; 0.0; 290.0; 270.0 |];
    (* ap-sg   *) [| 230.0; 250.0; 290.0; 0.0; 95.0 |];
    (* ap-tk   *) [| 120.0; 170.0; 270.0; 95.0; 0.0 |];
  |]

let ec2_names () = [| "us-west"; "us-east"; "eu-ireland"; "ap-singapore"; "ap-tokyo" |]

let ec2_five ?(nodes_per_dc = 1) () =
  make ~dc_names:(ec2_names ()) ~rtt:(ec2_rtt ()) ~nodes_per_dc ()

let us_west = 0
let us_east = 1

let num_dcs t = Array.length t.dc_names

let num_nodes t = Array.length t.node_dc

let dc_of t node = t.node_dc.(node)

let nodes_in_dc t dc =
  let acc = ref [] in
  for n = num_nodes t - 1 downto 0 do
    if t.node_dc.(n) = dc then acc := n :: !acc
  done;
  !acc

let all_nodes t = List.init (num_nodes t) Fun.id

let dc_one_way t da db = if da = db then t.intra_rtt /. 2.0 else t.rtt.(da).(db) /. 2.0

let one_way t a b = if a = b then 0.0 else dc_one_way t (dc_of t a) (dc_of t b)

let add_nodes t ~per_dc =
  if per_dc < 0 then invalid_arg "Topology.add_nodes: negative per_dc";
  let extra = Array.concat (List.init (num_dcs t) (fun dc -> Array.make per_dc dc)) in
  { t with node_dc = Array.append t.node_dc extra }
