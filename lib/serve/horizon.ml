module Splitmix = Plim_util.Splitmix
module Fault_model = Plim_fault.Fault_model
module Remap = Plim_fault.Remap
module Lifetime = Plim_stats.Lifetime
module Wear = Plim_telemetry.Wear
module Json = Plim_telemetry.Json
module Leveling = Plim_rram.Leveling

type strategy = Leveling.t = No_leveling | Start_gap | Wolfram_remap | Start_gap_wolfram

let all_strategies = Leveling.all
let strategy_name = Leveling.name
let strategy_of_string = Leveling.of_string

type config = {
  server : Server.config;
  mix : Workload.mix;
  strategy : strategy;
  fault_spec : Fault_model.spec;
  endurance : float;
  epoch_requests : int;
  sample_every : float;
  max_epochs : float;
  capacity_floor : float;
  psi : int;
  wolfram_period : int;
  model_spares : int;
  epoch_seconds : float;
  project_endurance : float;
}

let default_mix () =
  Workload.mix_of_suite
    (List.filteri (fun i _ -> i < 5) Plim_benchgen.Suite.small_suite)

let default_config =
  { server =
      { Server.default_config with
        Server.endurance = None;
        verify = false;
        check = false;
        fault_spec = Fault_model.none };
    mix = default_mix ();
    strategy = No_leveling;
    fault_spec = Fault_model.none;
    endurance = 2e5;
    epoch_requests = 80;
    sample_every = 2500.0;
    max_epochs = 40_000.0;
    capacity_floor = 0.35;
    psi = 100;
    wolfram_period = 50_000;
    model_spares = 8;
    epoch_seconds = 60.0;
    project_endurance = 1e10 }

type stop_reason = Capacity_floor | Fleet_dead | Max_epochs

let stop_reason_name = function
  | Capacity_floor -> "capacity_floor"
  | Fleet_dead -> "fleet_dead"
  | Max_epochs -> "max_epochs"

type sample = { hz_epoch : float; hz_capacity : float; hz_skew : Wear.skew }

type result = {
  r_strategy : strategy;
  r_fault_rate : float;
  r_endurance : float;
  r_epochs : float;
  r_stop : stop_reason;
  r_ttff : float option;           (* first cell wear-out, in epochs *)
  r_half_life : float option;      (* capacity <= 1/2 design capacity *)
  r_final_capacity : float;
  r_dead_shards : int;
  r_alive_shards : int;
  r_sampled_epochs : int;
  r_total_writes : float;
  r_skew : Wear.skew;
  r_trajectory : sample list;
  r_epoch_seconds : float;
  r_project_factor : float;        (* project_endurance / endurance *)
}

(* One modelled shard: a wear ledger over [Remap.num_physical] physical
   lines, fed by rates derived from measured server traffic.  The spare
   pool and the permanent-fault population live here — the live server
   fleet runs fault-free and is only used to measure per-cell write
   rates, so the fault axis perturbs exactly one thing (spare budget
   consumption) and lifetime stays monotone in the injected rate. *)
type shard_model = {
  sm_id : int;
  sm_meas : int;                   (* measured cells on the server shard *)
  sm_cells : int;                  (* logical lines of the model *)
  sm_rm : Remap.t;
  sm_wear : float array;           (* per physical line *)
  sm_rate : float array;           (* writes per epoch, per physical line *)
  sm_lrate : float array;          (* writes per epoch, per logical line *)
  sm_inverse : int array;          (* physical -> logical, -1 = unmapped *)
  sm_dead : bool array;            (* worn out or permanently faulty *)
  mutable sm_alive : bool;
}

let refresh_prate sm =
  Array.fill sm.sm_rate 0 (Array.length sm.sm_rate) 0.0;
  if sm.sm_alive then
    for l = 0 to sm.sm_cells - 1 do
      let p = Remap.physical sm.sm_rm l in
      sm.sm_rate.(p) <- sm.sm_rate.(p) +. sm.sm_lrate.(l)
    done

(* Remap logical line [l] off dead physical lines until it lands on a
   live one; [false] when the spare pool runs dry first. *)
let rec remap_off_dead rm dead l =
  (not dead.(Remap.physical rm l))
  ||
  match Remap.retire rm l with
  | Some _ -> remap_off_dead rm dead l
  | None -> false

(* Move a worn-out logical line onto a live spare; kills the shard when
   the pool runs dry. *)
let scrub_line sm l =
  if remap_off_dead sm.sm_rm sm.sm_dead l then
    sm.sm_inverse.(Remap.physical sm.sm_rm l) <- l
  else sm.sm_alive <- false

type power_on = { remap : Remap.t; dead : bool array; alive : bool }

let power_on cfg ~id ~cells =
  let remap = Remap.create ~spares:cfg.model_spares ~lines:cells () in
  let dead = Array.make (Remap.num_physical remap) false in
  List.iter
    (fun (p, _kind) -> dead.(p) <- true)
    (Fault_model.sample_permanent (Shard.fault_spec cfg.fault_spec ~id)
       ~cells:(Array.length dead));
  let alive = ref true in
  for l = 0 to cells - 1 do
    if !alive then alive := remap_off_dead remap dead l
  done;
  { remap; dead; alive = !alive }

let init_model cfg ~id ~meas =
  let cells = Leveling.lines cfg.strategy meas in
  let po = power_on cfg ~id ~cells in
  let np = Remap.num_physical po.remap in
  let inverse = Array.make np (-1) in
  for l = 0 to cells - 1 do
    inverse.(Remap.physical po.remap l) <- l
  done;
  { sm_id = id;
    sm_meas = meas;
    sm_cells = cells;
    sm_rm = po.remap;
    sm_wear = Array.make np 0.0;
    sm_rate = Array.make np 0.0;
    sm_lrate = Array.make cells 0.0;
    sm_inverse = inverse;
    sm_dead = po.dead;
    sm_alive = po.alive }

let set_rates cfg sm (delta : int array) =
  if sm.sm_alive then begin
    let overhead =
      Leveling.overhead cfg.strategy ~psi:cfg.psi ~period:cfg.wolfram_period
        ~lines:sm.sm_meas
    in
    let rates = Leveling.line_rates cfg.strategy ~overhead ~cells:sm.sm_cells delta in
    Array.blit rates 0 sm.sm_lrate 0 sm.sm_cells;
    refresh_prate sm
  end

let fleet_wear_snapshot models =
  let cells = ref [] in
  (* reverse shard order so the final list is ascending by (shard, line) *)
  List.iter
    (fun sm ->
      if sm.sm_alive then
        for p = Array.length sm.sm_wear - 1 downto 0 do
          if sm.sm_inverse.(p) >= 0 then
            cells := int_of_float (Float.round sm.sm_wear.(p)) :: !cells
        done)
    (List.rev models);
  match !cells with [] -> [| 0 |] | l -> Array.of_list l

let capacity_of models total =
  let alive = List.length (List.filter (fun sm -> sm.sm_alive) models) in
  float_of_int alive /. float_of_int total

let validate cfg =
  if cfg.endurance <= 0.0 then invalid_arg "Horizon.run: endurance must be positive";
  if cfg.epoch_requests <= 0 then invalid_arg "Horizon.run: epoch_requests must be positive";
  if cfg.sample_every <= 0.0 then invalid_arg "Horizon.run: sample_every must be positive";
  if cfg.max_epochs <= 0.0 then invalid_arg "Horizon.run: max_epochs must be positive";
  if cfg.capacity_floor < 0.0 || cfg.capacity_floor > 1.0 then
    invalid_arg "Horizon.run: capacity_floor must be in [0,1]";
  Leveling.validate ~psi:cfg.psi ~period:cfg.wolfram_period;
  if cfg.model_spares < 0 then invalid_arg "Horizon.run: model_spares must be non-negative";
  if cfg.project_endurance <= 0.0 then
    invalid_arg "Horizon.run: project_endurance must be positive"

let run ?pool cfg =
  validate cfg;
  let server_cfg =
    { cfg.server with Server.fault_spec = Fault_model.none; endurance = None }
  in
  let server = Server.create server_cfg in
  let sample_seed = Splitmix.derive server_cfg.Server.seed 0x4A11 in
  let sampled = ref 0 in
  let run_epoch () =
    let seed = Splitmix.derive sample_seed !sampled in
    incr sampled;
    let before = Server.shard_wear server in
    let reqs = Workload.generate ~seed ~requests:cfg.epoch_requests cfg.mix in
    Server.feed ?pool server reqs;
    let after = Server.shard_wear server in
    List.map
      (fun (id, _status, w) ->
        (match List.assoc_opt id (List.map (fun (i, _, a) -> (i, a)) before) with
        | Some w0 -> Array.mapi (fun i c -> c - w0.(i)) w
        | None -> w)
        |> fun delta -> (id, delta))
      after
  in
  (* epoch 0: materialise the fleet, measure the first rates *)
  let deltas0 = run_epoch () in
  let models =
    List.map (fun (id, delta) -> init_model cfg ~id ~meas:(Array.length delta)) deltas0
  in
  let total_shards = List.length models in
  if total_shards = 0 then invalid_arg "Horizon.run: empty fleet";
  let apply_deltas deltas =
    List.iter
      (fun sm ->
        match List.assoc_opt sm.sm_id deltas with
        | Some delta -> set_rates cfg sm delta
        | None -> ())
      models
  in
  (* power-on scrub may already have killed shards: sync the server fleet *)
  List.iter
    (fun sm -> if not sm.sm_alive then ignore (Server.force_retire server sm.sm_id))
    models;
  apply_deltas deltas0;
  let trajectory = ref [] in
  let record epoch =
    let skew = Wear.skew_of (fleet_wear_snapshot models) in
    trajectory :=
      { hz_epoch = epoch; hz_capacity = capacity_of models total_shards; hz_skew = skew }
      :: !trajectory
  in
  record 0.0;
  let ttff = ref None in
  let total_writes = ref 0.0 in
  let now = ref 0.0 in
  let last_sample = ref 0.0 in
  let stop = ref None in
  let events = ref 0 in
  let eps = 1e-9 *. cfg.endurance in
  let resample () =
    let deltas = run_epoch () in
    apply_deltas deltas;
    last_sample := !now
  in
  (* Kill every cell at or past the endurance threshold, remap its logical
     line to a spare, and propagate shard death into the live fleet so the
     next sampled epoch reroutes traffic.  Returns whether fleet capacity
     changed. *)
  let process_deaths () =
    let fleet_changed = ref false in
    List.iter
      (fun sm ->
        if sm.sm_alive then begin
          let shard_changed = ref false in
          Array.iteri
            (fun p w ->
              if
                sm.sm_alive && (not sm.sm_dead.(p))
                && sm.sm_inverse.(p) >= 0
                && w +. eps >= cfg.endurance
              then begin
                if !ttff = None then ttff := Some !now;
                sm.sm_dead.(p) <- true;
                sm.sm_wear.(p) <- 0.0;
                let l = sm.sm_inverse.(p) in
                sm.sm_inverse.(p) <- -1;
                (* without wear-time retirement the first wear-out
                   death takes the whole shard; factory defects were
                   still patched at power-on for every strategy *)
                if Leveling.retires_worn_lines cfg.strategy then scrub_line sm l
                else sm.sm_alive <- false;
                shard_changed := true
              end)
            sm.sm_wear;
          if !shard_changed then begin
            refresh_prate sm;
            if not sm.sm_alive then begin
              ignore (Server.force_retire server sm.sm_id);
              fleet_changed := true
            end
          end
        end)
      models;
    !fleet_changed
  in
  while !stop = None do
    incr events;
    let capacity = capacity_of models total_shards in
    if capacity < cfg.capacity_floor then
      stop := Some (if capacity = 0.0 then Fleet_dead else Capacity_floor)
    else if !now >= cfg.max_epochs || !events > 1_000_000 then stop := Some Max_epochs
    else begin
      let next_sample = !last_sample +. cfg.sample_every in
      let e_death =
        List.fold_left
          (fun acc sm ->
            if sm.sm_alive then
              min acc
                (Lifetime.epochs_to_threshold ~threshold:cfg.endurance
                   ~wear:sm.sm_wear ~rate:sm.sm_rate)
            else acc)
          infinity models
      in
      let death_at = !now +. e_death in
      let target = min (min next_sample cfg.max_epochs) death_at in
      let dt = target -. !now in
      List.iter
        (fun sm ->
          if sm.sm_alive then begin
            total_writes :=
              !total_writes +. (dt *. Array.fold_left ( +. ) 0.0 sm.sm_rate);
            Lifetime.fast_forward_into ~epochs:dt ~wear:sm.sm_wear ~rate:sm.sm_rate
          end)
        models;
      now := target;
      if target = death_at && e_death < infinity then begin
        let fleet_changed = process_deaths () in
        if fleet_changed then begin
          record !now;
          if capacity_of models total_shards >= cfg.capacity_floor then resample ()
        end
      end
      else if target = next_sample && target < cfg.max_epochs then begin
        resample ();
        record !now
      end
      (* target = max_epochs: the loop head stops on the next iteration *)
    end
  done;
  let stop = match !stop with Some s -> s | None -> Max_epochs in
  record !now;
  let trajectory = List.rev !trajectory in
  let capacity_curve = List.map (fun s -> (s.hz_epoch, s.hz_capacity)) trajectory in
  let final_capacity = capacity_of models total_shards in
  let dead = List.length (List.filter (fun sm -> not sm.sm_alive) models) in
  { r_strategy = cfg.strategy;
    r_fault_rate = cfg.fault_spec.Fault_model.sa0 +. cfg.fault_spec.Fault_model.sa1;
    r_endurance = cfg.endurance;
    r_epochs = !now;
    r_stop = stop;
    r_ttff = !ttff;
    r_half_life = Lifetime.half_life ~initial:1.0 capacity_curve;
    r_final_capacity = final_capacity;
    r_dead_shards = dead;
    r_alive_shards = total_shards - dead;
    r_sampled_epochs = !sampled;
    r_total_writes = !total_writes;
    r_skew = Wear.skew_of (fleet_wear_snapshot models);
    r_trajectory = trajectory;
    r_epoch_seconds = cfg.epoch_seconds;
    r_project_factor = cfg.project_endurance /. cfg.endurance }

(* --- grid -------------------------------------------------------------- *)

let spec_of_rate ?(seed = 0xFA17) rate =
  if rate <= 0.0 then Fault_model.none
  else Fault_model.make ~sa0:(rate *. 2.0 /. 3.0) ~sa1:(rate /. 3.0) ~seed ()

let cells cfg ~strategies ~fault_rates =
  List.concat_map
    (fun strategy ->
      List.map
        (fun rate ->
          let fault_spec = spec_of_rate rate in
          (strategy, rate, { cfg with strategy; fault_spec }))
        fault_rates)
    strategies

let grid ?pool cfg ~strategies ~fault_rates =
  let one (strategy, rate, c) = (strategy, rate, run ?pool c) in
  let cells = cells cfg ~strategies ~fault_rates in
  match pool with
  | Some p -> Plim_par.map p ~f:one cells
  | None -> List.map one cells

let cell_label strategy fault_rate =
  Printf.sprintf "%s/r%g" (strategy_name strategy) fault_rate

(* --- reporting --------------------------------------------------------- *)

let seconds_per_year = 31_557_600.0

let years_of r epochs = epochs *. r.r_epoch_seconds /. seconds_per_year

let label r = cell_label r.r_strategy r.r_fault_rate

(* [-1] encodes "did not happen before the campaign stopped" — the schema
   has no nulls so the rows stay greppable and diffable.  Non-finite
   values fold into the same sentinel: Lifetime.epochs_to_threshold is
   contracted to return bare [infinity] for "never", and "never" and
   "not yet" mean the same thing to a row reader. *)
let sentinel_epochs = function
  | Some e when Float.is_finite e -> e
  | Some _ | None -> -1.0

let decimate ~keep xs =
  let n = List.length xs in
  if n <= keep then xs
  else
    let arr = Array.of_list xs in
    List.init keep (fun i ->
        if i = keep - 1 then arr.(n - 1) else arr.(i * (n - 1) / (keep - 1)))

let row_json ?label:lbl r =
  let lbl = match lbl with Some l -> l | None -> label r in
  let epochs e = Json.Num (sentinel_epochs e) in
  let years e = epochs (Option.map (years_of r) e) in
  let proj e = epochs (Option.map (fun e -> years_of r e *. r.r_project_factor) e) in
  let point s =
    Json.Obj
      [ ("epoch", Num s.hz_epoch); ("capacity", Num s.hz_capacity);
        ("gini", Num s.hz_skew.Wear.gini); ("max_mean", Num s.hz_skew.Wear.max_mean) ]
  in
  Json.Obj
    [ ("schema", Str "plim-horizon/v1"); ("label", Str lbl);
      ("strategy", Str (strategy_name r.r_strategy)); ("fault_rate", Num r.r_fault_rate);
      ("endurance", Num r.r_endurance); ("epochs", Num r.r_epochs);
      ("stop", Str (stop_reason_name r.r_stop)); ("ttff_epochs", epochs r.r_ttff);
      ("ttff_years", years r.r_ttff); ("half_life_epochs", epochs r.r_half_life);
      ("half_life_years", years r.r_half_life); ("proj_ttff_years", proj r.r_ttff);
      ("proj_half_life_years", proj r.r_half_life);
      ("final_capacity", Num r.r_final_capacity);
      ("capacity_loss", Num (1.0 -. r.r_final_capacity));
      ("dead_shards", Int r.r_dead_shards); ("alive_shards", Int r.r_alive_shards);
      ("sampled_epochs", Int r.r_sampled_epochs); ("total_writes", Num r.r_total_writes);
      ("skew", Wear.skew_json r.r_skew);
      ("trajectory", Arr (List.map point (decimate ~keep:48 r.r_trajectory))) ]
