module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io
module Splitmix = Plim_util.Splitmix

type ref_ = { idx : int; neg : bool }

type node = { a : ref_; b : ref_; c : ref_ }

type desc = {
  inputs : int;
  nodes : node array;
  outs : ref_ array;
}

let well_formed d =
  d.inputs >= 1
  && Array.length d.outs >= 1
  && (let ok = ref true in
      let check_ref limit r = if r.idx < 0 || r.idx > limit then ok := false in
      Array.iteri
        (fun k n ->
          let limit = d.inputs + k in
          check_ref limit n.a;
          check_ref limit n.b;
          check_ref limit n.c)
        d.nodes;
      Array.iter (check_ref (d.inputs + Array.length d.nodes)) d.outs;
      !ok)

let to_mig d =
  let g = Mig.create () in
  let signals = Array.make (1 + d.inputs + Array.length d.nodes) Mig.false_ in
  for i = 1 to d.inputs do
    signals.(i) <- Mig.add_input g (Printf.sprintf "x%d" (i - 1))
  done;
  let resolve r =
    let s = signals.(r.idx) in
    if r.neg then Mig.not_ s else s
  in
  Array.iteri
    (fun k n ->
      signals.(1 + d.inputs + k) <- Mig.maj g (resolve n.a) (resolve n.b) (resolve n.c))
    d.nodes;
  Array.iteri (fun i r -> Mig.add_output g (Printf.sprintf "y%d" i) (resolve r)) d.outs;
  g

let eval d v =
  if Array.length v <> d.inputs then invalid_arg "Gen.eval: input arity mismatch";
  let vals = Array.make (1 + d.inputs + Array.length d.nodes) false in
  for i = 1 to d.inputs do
    vals.(i) <- v.(i - 1)
  done;
  let rv r = vals.(r.idx) <> r.neg in
  Array.iteri
    (fun k n ->
      let a = rv n.a and b = rv n.b and c = rv n.c in
      vals.(1 + d.inputs + k) <- (a && b) || (a && c) || (b && c))
    d.nodes;
  Array.map rv d.outs

(* --- generation ------------------------------------------------------- *)

let generate ?(max_inputs = 6) ?(max_nodes = 32) ?(max_outputs = 4) rng =
  let inputs = 1 + Splitmix.int rng max_inputs in
  let num_nodes = Splitmix.int rng (max_nodes + 1) in
  (* per-description complement density: some graphs nearly polarity-free,
     some saturated — both regimes stress the translator differently *)
  let density = 0.75 *. Splitmix.float rng in
  let const_prob = 0.06 in
  let pick_ref limit =
    let idx =
      if Splitmix.float rng < const_prob then 0
      else if limit > 8 && Splitmix.bool rng then
        (* locality bias: half the edges reach into the recent window,
           producing deep, reconvergent structure *)
        limit - Splitmix.int rng 8
      else 1 + Splitmix.int rng limit
    in
    { idx; neg = Splitmix.float rng < density }
  in
  let nodes =
    Array.init num_nodes (fun k ->
        let limit = inputs + k in
        { a = pick_ref limit; b = pick_ref limit; c = pick_ref limit })
  in
  let num_outs = 1 + Splitmix.int rng max_outputs in
  let outs = Array.init num_outs (fun _ -> pick_ref (inputs + num_nodes)) in
  { inputs; nodes; outs }

(* --- shrinking -------------------------------------------------------- *)

(* remove node [k], rerouting every later reference to the chosen child *)
let remove_node_via d k via =
  let nk = d.nodes.(k) in
  let target = match via with `A -> nk.a | `B -> nk.b | `C -> nk.c in
  let self = 1 + d.inputs + k in
  let subst r =
    if r.idx = self then { idx = target.idx; neg = r.neg <> target.neg }
    else if r.idx > self then { r with idx = r.idx - 1 }
    else r
  in
  { d with
    nodes =
      Array.init
        (Array.length d.nodes - 1)
        (fun j ->
          let n = d.nodes.(if j < k then j else j + 1) in
          { a = subst n.a; b = subst n.b; c = subst n.c });
    outs = Array.map subst d.outs }

let remove_node d k = remove_node_via d k `A

let drop_suffix d keep =
  let r = ref d in
  while Array.length !r.nodes > keep do
    r := remove_node !r (Array.length !r.nodes - 1)
  done;
  !r

let remove_out d i =
  { d with
    outs = Array.init (Array.length d.outs - 1) (fun j -> d.outs.(if j < i then j else j + 1)) }

let drop_unused_top_input d =
  (* only the highest input can be dropped without renumbering lower PIs *)
  let top = d.inputs in
  let used = ref false in
  let look r = if r.idx = top then used := true in
  Array.iter (fun n -> look n.a; look n.b; look n.c) d.nodes;
  Array.iter look d.outs;
  if !used || d.inputs <= 1 then None
  else begin
    let shift r = if r.idx > top then { r with idx = r.idx - 1 } else r in
    Some
      { inputs = d.inputs - 1;
        nodes = Array.map (fun n -> { a = shift n.a; b = shift n.b; c = shift n.c }) d.nodes;
        outs = Array.map shift d.outs }
  end

let shrink d yield =
  let n = Array.length d.nodes in
  (* big cuts first: halve the node count *)
  if n > 1 then yield (drop_suffix d (n / 2));
  (* single-node removals, late nodes first (they carry the least fanout);
     rerouting through each child in turn escapes Ω.M-collapse minima *)
  for k = n - 1 downto 0 do
    yield (remove_node_via d k `A)
  done;
  for k = n - 1 downto 0 do
    yield (remove_node_via d k `B);
    yield (remove_node_via d k `C)
  done;
  (* hoist references past a node to that node's children (keeps the node
     but shortens paths; strictly decreases the total index sum) *)
  let hoist r yield_ref =
    if r.idx > d.inputs then begin
      let j = r.idx - d.inputs - 1 in
      let nj = d.nodes.(j) in
      List.iter
        (fun (child : ref_) -> yield_ref { idx = child.idx; neg = r.neg <> child.neg })
        [ nj.a; nj.b; nj.c ]
    end
  in
  Array.iteri
    (fun i r ->
      hoist r (fun r' ->
          yield { d with outs = (let c = Array.copy d.outs in c.(i) <- r'; c) }))
    d.outs;
  Array.iteri
    (fun k node ->
      hoist node.a (fun r' ->
          yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with a = r' }; c) });
      hoist node.b (fun r' ->
          yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with b = r' }; c) });
      hoist node.c (fun r' ->
          yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with c = r' }; c) }))
    d.nodes;
  (* fewer outputs *)
  if Array.length d.outs > 1 then begin
    yield { d with outs = [| d.outs.(0) |] };
    for i = Array.length d.outs - 1 downto 1 do
      yield (remove_out d i)
    done
  end;
  (* reroute node children to the constant *)
  Array.iteri
    (fun k node ->
      let zero = { idx = 0; neg = false } in
      if node.a.idx > 0 then yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with a = zero }; c) };
      if node.b.idx > 0 then yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with b = zero }; c) };
      if node.c.idx > 0 then yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with c = zero }; c) })
    d.nodes;
  (* clear complement flags one at a time *)
  Array.iteri
    (fun k node ->
      let pos r = { r with neg = false } in
      if node.a.neg then yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with a = pos node.a }; c) };
      if node.b.neg then yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with b = pos node.b }; c) };
      if node.c.neg then yield { d with nodes = (let c = Array.copy d.nodes in c.(k) <- { node with c = pos node.c }; c) })
    d.nodes;
  Array.iteri
    (fun i r ->
      if r.neg then yield { d with outs = (let c = Array.copy d.outs in c.(i) <- { r with neg = false }; c) })
    d.outs;
  (* drop the highest input when dead *)
  match drop_unused_top_input d with Some d' -> yield d' | None -> ()

let print d =
  Printf.sprintf "desc: %d inputs, %d nodes, %d outputs\n%s" d.inputs
    (Array.length d.nodes) (Array.length d.outs)
    (Mig_io.to_string (to_mig d))

let gen_qcheck ~max_inputs ~max_nodes ~max_outputs st =
  (* fold QCheck's random state into a splitmix seed so the description
     generator itself stays a pure function of one integer *)
  let seed = Random.State.bits st lxor (Random.State.bits st lsl 30) in
  generate ~max_inputs ~max_nodes ~max_outputs (Splitmix.create seed)

let arbitrary ?(max_inputs = 6) ?(max_nodes = 32) ?(max_outputs = 4) () =
  QCheck.make ~print ~shrink (gen_qcheck ~max_inputs ~max_nodes ~max_outputs)
