module Program = Plim_isa.Program
module Crossbar = Plim_rram.Crossbar
module Leveling = Plim_rram.Leveling
module Splitmix = Plim_util.Splitmix
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics
module Fault_model = Plim_fault.Fault_model
module Faulty = Plim_fault.Faulty
module Remap = Plim_fault.Remap
module Exec = Plim_fault.Exec
module Wear = Plim_telemetry.Wear
module Series = Plim_telemetry.Series
module Json = Plim_telemetry.Json

let m_campaigns = Metrics.counter "campaign.runs"
let m_executions = Metrics.counter "campaign.executions"

type wear_sample = {
  at_execution : int;
  at_write : int;
  skew : Wear.skew;
}

type outcome = {
  executions_completed : int;
  failed : bool;
  write_total : int;
}

(* Wear-trajectory sampling of the degraded campaign: a crossbar
   observer supplies the physical-write clock, and skew snapshots taken
   at fixed execution boundaries flow through a decimating series so the
   curve stays bounded on arbitrarily long campaigns.  Everything here is
   a pure function of the (deterministic) execution sequence — no clock,
   no extra randomness — so trajectories are [-j N]-stable. *)

let default_sample_every max_executions = max 1 (max_executions / 64)

type sampler = {
  sm_every : int;
  sm_writes : int ref;             (* physical-write clock *)
  sm_series : wear_sample Series.t;
  sm_counts : unit -> int array;
}

let make_sampler ~sample_every ~max_executions ~counts =
  let sm_every =
    match sample_every with
    | Some k ->
      if k < 1 then invalid_arg "Campaign: sample_every must be >= 1";
      k
    | None -> default_sample_every max_executions
  in
  { sm_every;
    sm_writes = ref 0;
    sm_series = Series.create ~capacity:128 ();
    sm_counts = counts }

let sampler_observer sm = Some (fun ~cell:_ ~writes:_ -> incr sm.sm_writes)

let take_sample sm at_execution =
  Series.offer sm.sm_series
    { at_execution; at_write = !(sm.sm_writes); skew = Wear.skew_of (sm.sm_counts ()) }

let sample_boundary sm completed =
  if completed mod sm.sm_every = 0 then take_sample sm completed

(* The retained curve plus a guaranteed final point (decimation may have
   dropped the last boundary sample). *)
let finish_trajectory sm completed =
  let final =
    { at_execution = completed;
      at_write = !(sm.sm_writes);
      skew = Wear.skew_of (sm.sm_counts ()) }
  in
  let pts = Series.to_list sm.sm_series in
  match Series.last sm.sm_series with
  | Some s when s.at_execution = completed -> pts
  | _ -> pts @ [ final ]

let trajectory_json samples =
  let sample s =
    Json.Obj
      [ ("at_execution", Int s.at_execution); ("at_write", Int s.at_write);
        ("skew", Wear.skew_json s.skew) ]
  in
  Json.Arr (List.map sample samples)

let pp_trajectory ppf samples =
  Format.fprintf ppf "  %10s %10s  %s@." "execution" "writes" "wear skew";
  List.iter
    (fun s ->
      Format.fprintf ppf "  %10d %10d  %a@." s.at_execution s.at_write Wear.pp_skew
        s.skew)
    samples

(* One execution with a logical->physical mapping sampled per access and a
   per-logical-write notification.  Output values are not collected: the
   campaign measures wear.  Raises [Crossbar.Cell_failed] when a device
   dies. *)
let execute_mapped (p : Program.t) xbar rng ~map ~on_write =
  Array.iter
    (fun (_, cell) -> Crossbar.load xbar (map cell) (Splitmix.bool rng))
    p.Program.pi_cells;
  (* operand codes of the packed stream: 0/1 a constant, cell + 2 *)
  let operand c = if c < 2 then c = 1 else Crossbar.read xbar (map (c - 2)) in
  let code = p.Program.code in
  for i = 0 to Array.length code - 1 do
    let w = code.(i) in
    let a = operand ((w lsr Program.field_bits) land Program.field_mask) in
    let b = operand (w lsr (2 * Program.field_bits)) in
    let z = w land Program.field_mask in
    Crossbar.rm3 xbar ~p:a ~q:b (map z);
    on_write z
  done

let total_writes xbar = Array.fold_left ( + ) 0 (Crossbar.write_counts xbar)

let run_until_failure ?(max_executions = 100_000) ?(strategy = Leveling.No_leveling) ?psi
    ~endurance p =
  Profile.span "campaign" @@ fun () ->
  Metrics.incr m_campaigns;
  let stack = Leveling.stack ?psi strategy p.Program.num_cells in
  let xbar = Crossbar.create ~endurance (Leveling.num_physical stack) in
  (* levelling copies (gap moves, re-key migrations) are real writes *)
  let on_copy dst = Crossbar.write xbar dst false in
  let rng = Splitmix.create 0xCAFE in
  let finish completed failed =
    { executions_completed = completed; failed; write_total = total_writes xbar }
  in
  let rec go completed =
    if completed >= max_executions then finish completed false
    else
      match
        execute_mapped p xbar rng ~map:(Leveling.physical stack)
          ~on_write:(Leveling.write stack ~on_copy)
      with
      | () ->
        Metrics.incr m_executions;
        go (completed + 1)
      | exception Crossbar.Cell_failed _ -> finish completed true
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Graceful degradation: instead of dying at the first worn-out cell, the
   campaign runs behind the fault layer — write-verify detects stuck
   cells, the remapper retires them onto spares, and the run reports a
   capacity curve plus result correctness until the spare pool is dry. *)

type degradation_point = {
  at_execution : int;
  capacity : float;
  spares_left : int;
}

type ended = Spares_exhausted of int | Max_executions

type degradation = {
  executions : int;
  correct : int;
  incorrect : int;
  injected : int;
  worn_out : int;
  detections : int;
  remaps : int;
  verify_reads : int;
  retries : int;
  transient_failures : int;
  final_capacity : float;
  spares_remaining : int;
  curve : degradation_point list;   (** chronological; one point per capacity change *)
  degraded_write_total : int;
  ended : ended;
  trajectory : wear_sample list;    (** chronological wear-skew samples *)
  final_wear : int array;           (** per-cell write counts at campaign end *)
}

let m_degraded = Metrics.counter "campaign.degraded_runs"

let run_degraded ?(seed = 0xCAFE) ?(max_executions = 100) ?sample_every ?endurance
    ?(spares = 0) ?(verify = true) ?(fault_spec = Fault_model.none) ?oracle
    (p : Program.t) =
  Profile.span "campaign.degraded" @@ fun () ->
  Metrics.incr m_degraded;
  let lines = p.Program.num_cells in
  let xbar = Crossbar.create ?endurance (lines + spares) in
  let fx = Faulty.create ~spec:fault_spec xbar in
  let sm =
    make_sampler ~sample_every ~max_executions ~counts:(fun () -> Faulty.wear_counts fx)
  in
  Faulty.set_observer fx (sampler_observer sm);
  take_sample sm 0;
  let rm = Remap.create ~spares ~lines () in
  let rng = Splitmix.create seed in
  let width = Array.length p.Program.pi_cells in
  let correct = ref 0
  and incorrect = ref 0
  and stats = ref Exec.zero_stats
  and curve = ref []
  and last_capacity = ref (Faulty.capacity fx) in
  let point at_execution =
    curve :=
      { at_execution; capacity = Faulty.capacity fx; spares_left = Remap.spares_left rm }
      :: !curve
  in
  point 0;
  let check vector outputs =
    match oracle with
    | None -> ()
    | Some f ->
      let expected = f vector in
      let actual = Array.of_list (List.map snd outputs) in
      if expected = actual then incr correct else incr incorrect
  in
  let rec go completed =
    if completed >= max_executions then (completed, Max_executions)
    else begin
      let vector = Splitmix.bits rng ~width in
      let inputs = Program.inputs_of_vector p.Program.pi_cells vector in
      let outcome, s = Exec.run ~verify fx rm p ~inputs in
      stats := Exec.add_stats !stats s;
      match outcome with
      | Exec.Completed outputs ->
        Metrics.incr m_executions;
        check vector outputs;
        if Faulty.capacity fx <> !last_capacity then begin
          last_capacity := Faulty.capacity fx;
          point (completed + 1)
        end;
        if completed + 1 < max_executions then sample_boundary sm (completed + 1);
        go (completed + 1)
      | Exec.Out_of_spares l ->
        last_capacity := Faulty.capacity fx;
        point (completed + 1);
        (completed, Spares_exhausted l)
    end
  in
  let executions, ended = go 0 in
  Faulty.set_observer fx None;
  { executions;
    correct = !correct;
    incorrect = !incorrect;
    injected = Faulty.injected fx;
    worn_out = Faulty.worn_out fx;
    detections = (!stats).Exec.detections;
    remaps = (!stats).Exec.remaps;
    verify_reads = (!stats).Exec.verify_reads;
    retries = (!stats).Exec.retries;
    transient_failures = Faulty.transient_failures fx;
    final_capacity = Faulty.capacity fx;
    spares_remaining = Remap.spares_left rm;
    curve = List.rev !curve;
    degraded_write_total = total_writes xbar;
    ended;
    trajectory = finish_trajectory sm executions;
    final_wear = Faulty.wear_counts fx }

(* ------------------------------------------------------------------ *)
(* Degradation sweep over a rate x spares grid: each cell is an
   independent [run_degraded] campaign (own crossbar, fault layer and rng),
   so the grid is embarrassingly parallel.  Results come back in grid
   order — rates outer, spare budgets inner — at any pool width, which is
   what lets the bench faulttol table and its JSON rows stay byte-identical
   between -j 1 and -j N. *)

let sweep_degraded ?pool ?seed ?max_executions ?(verify = true) ?oracle
    ~fault_spec_of ~rates ~spare_budgets p =
  Profile.span "campaign.sweep" @@ fun () ->
  let grid =
    List.concat_map (fun rate -> List.map (fun spares -> (rate, spares)) spare_budgets)
      rates
  in
  let eval (rate, spares) =
    run_degraded ?seed ?max_executions ~spares ~verify ~fault_spec:(fault_spec_of rate)
      ?oracle p
  in
  match pool with
  | Some p' -> Plim_par.map p' ~f:eval grid
  | None -> List.map eval grid
