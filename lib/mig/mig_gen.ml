module Splitmix = Plim_util.Splitmix

type profile = {
  compl_prob : float;
  locality : int;
  const_prob : float;
  input_prob : float;
}

let default_profile =
  { compl_prob = 0.3; locality = 1 lsl 30; const_prob = 0.02; input_prob = 0.0 }

let control_profile =
  { compl_prob = 0.25; locality = 64; const_prob = 0.08; input_prob = 0.3 }

let random ?(profile = default_profile) ~seed ~num_inputs ~num_nodes ~num_outputs () =
  if num_inputs <= 0 then invalid_arg "Mig_gen.random: need at least one input";
  let rng = Splitmix.create seed in
  let g = Mig.create_sized ~nodes:(1 + num_inputs + num_nodes) () in
  let inputs =
    Array.init num_inputs (fun i -> Mig.add_input g (Printf.sprintf "x%d" i))
  in
  (* pool of candidate child signals: inputs first, then created nodes *)
  let pool = Plim_util.Vec.create ~dummy:Mig.false_ () in
  let pool_len = ref 0 in
  let push s =
    ignore (Plim_util.Vec.push pool s);
    incr pool_len
  in
  Array.iter push inputs;
  (* [pool_nth k] is the k-th most recent entry *)
  let pool_nth k = Plim_util.Vec.get pool (!pool_len - 1 - k) in
  let pick () =
    if Splitmix.float rng < profile.const_prob then
      if Splitmix.bool rng then Mig.true_ else Mig.false_
    else begin
      let s =
        if Splitmix.float rng < profile.input_prob then
          inputs.(Splitmix.int rng num_inputs)
        else begin
          let window = min profile.locality !pool_len in
          pool_nth (Splitmix.int rng window)
        end
      in
      if Splitmix.float rng < profile.compl_prob then Mig.not_ s else s
    end
  in
  let created = ref 0 in
  let attempts = ref 0 in
  let max_attempts = 20 * (num_nodes + 16) in
  while !created < num_nodes && !attempts < max_attempts do
    incr attempts;
    let before = Mig.num_nodes g in
    let s = Mig.maj g (pick ()) (pick ()) (pick ()) in
    if Mig.num_nodes g > before then begin
      push s;
      incr created
    end
  done;
  let num_outputs = max 1 num_outputs in
  for o = 0 to num_outputs - 1 do
    (* outputs sample the most recent (deepest) region of the pool *)
    let window = min !pool_len (max 1 (2 * num_outputs)) in
    let s = pool_nth (o mod window) in
    let s = if Splitmix.float rng < profile.compl_prob then Mig.not_ s else s in
    Mig.add_output g (Printf.sprintf "y%d" o) s
  done;
  Mig.drop_strash g;
  g
