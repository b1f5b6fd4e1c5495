type t = {
  executions_to_first_failure : float;
  ideal_executions : float;
  balance_efficiency : float;
}

let estimate ~endurance writes =
  if endurance <= 0.0 then invalid_arg "Lifetime.estimate: endurance must be positive";
  let s = Stats.summarize writes in
  if s.Stats.max = 0 then
    { executions_to_first_failure = infinity;
      ideal_executions = infinity;
      balance_efficiency = 1.0 }
  else begin
    let first_failure = endurance /. float_of_int s.Stats.max in
    let ideal =
      endurance *. float_of_int s.Stats.count /. float_of_int s.Stats.total
    in
    { executions_to_first_failure = first_failure;
      ideal_executions = ideal;
      balance_efficiency = first_failure /. ideal }
  end

let pp ppf t =
  Format.fprintf ppf "first-failure=%.3e ideal=%.3e efficiency=%.3f"
    t.executions_to_first_failure t.ideal_executions t.balance_efficiency

(* --- accelerated-time extrapolation ------------------------------------ *)

let fast_forward_into ~epochs ~wear ~rate =
  if Array.length wear <> Array.length rate then
    invalid_arg "Lifetime.fast_forward_into: wear and rate lengths differ";
  if epochs < 0.0 then invalid_arg "Lifetime.fast_forward_into: negative epochs";
  for i = 0 to Array.length wear - 1 do
    wear.(i) <- wear.(i) +. epochs *. rate.(i)
  done

let epochs_to_threshold ~threshold ~wear ~rate =
  if Array.length wear <> Array.length rate then
    invalid_arg "Lifetime.epochs_to_threshold: wear and rate lengths differ";
  let best = ref infinity in
  for i = 0 to Array.length wear - 1 do
    if wear.(i) >= threshold then best := 0.0
    else if rate.(i) > 0.0 then begin
      let e = (threshold -. wear.(i)) /. rate.(i) in
      if e < !best then best := e
    end
  done;
  !best

let half_life ~initial trajectory =
  if initial <= 0.0 then invalid_arg "Lifetime.half_life: initial must be positive";
  let target = initial /. 2.0 in
  let rec go = function
    | [] -> None
    | (epoch, capacity) :: rest ->
      if capacity <= target then Some epoch else go rest
  in
  go trajectory
