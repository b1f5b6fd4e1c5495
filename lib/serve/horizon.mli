(** Device-lifetime horizon campaigns: years of traffic in seconds.

    The serve fleet simulates individual requests; RRAM endurance questions
    live at 1e10 writes per cell — ~10 orders of magnitude of traffic no
    per-write simulation can cover.  A horizon campaign closes the gap with
    accelerated time: every [sample_every] epochs one {e sampled epoch} of
    real {!Workload} traffic runs through the {!Server} fleet and the
    per-shard, per-cell write deltas become {e rates}; between samples wear
    advances in closed form ({!Plim_stats.Lifetime.fast_forward_into}) and the
    driver jumps straight to the next event — the earliest predicted cell
    death, the next sample boundary, or the epoch horizon — so runtime
    scales with {e events}, not with endurance.

    The endurance strategy is a first-class axis: between samples each
    shard's measured deltas become the stationary per-line rates of its
    {!Plim_rram.Leveling} strategy (see there for the per-strategy closed
    forms and why they are sound).

    Faults: the model layer owns the permanent-fault population and a
    per-shard {!Plim_fault.Remap} spare pool; worn-out or faulty lines
    retire onto spares and a shard dies when the pool runs dry (the live
    server shard is {!Server.force_retire}d so the next sampled epoch
    reroutes its traffic).  The live fleet itself runs fault-free — the
    fault-rate axis therefore only consumes spare budget, which keeps
    time-to-first-failure and capacity half-life monotone in the rate.

    Under [start_gap] alone a wear-out death takes the whole shard
    ({!Plim_rram.Leveling.retires_worn_lines}); the programmable remap of
    [start_gap+wolfram] restores graceful degradation, so it matches
    Start-Gap's time-to-first-failure while keeping WoLFRaM's capacity
    half-life. *)

type strategy = Plim_rram.Leveling.t =
  | No_leveling
  | Start_gap
  | Wolfram_remap
  | Start_gap_wolfram

val all_strategies : strategy list
(** {!Plim_rram.Leveling.all}. *)

val strategy_name : strategy -> string
(** {!Plim_rram.Leveling.name}. *)

val strategy_of_string : string -> (strategy, string) result
(** {!Plim_rram.Leveling.of_string}. *)

type config = {
  server : Server.config;
      (** fleet shape; [fault_spec] and [endurance] in here are overridden
          (the live fleet runs fault-free and never retires on its own —
          the horizon model owns both). *)
  mix : Workload.mix;
  strategy : strategy;
  fault_spec : Plim_fault.Fault_model.spec;
      (** permanent faults of the {e model} layer, seeded per shard. *)
  endurance : float;       (** per-cell write budget of the campaign *)
  epoch_requests : int;    (** requests per epoch of simulated traffic *)
  sample_every : float;    (** epochs between sampled (really-executed) epochs *)
  max_epochs : float;      (** hard horizon *)
  capacity_floor : float;  (** stop when alive-shard fraction drops below *)
  psi : int;               (** Start-Gap rotation period *)
  wolfram_period : int;    (** writes between WoLFRaM re-keys *)
  model_spares : int;      (** spare lines per shard in the wear model *)
  epoch_seconds : float;   (** wall-clock seconds one epoch represents *)
  project_endurance : float;
      (** real device endurance (default 1e10) the [proj_*_years] row
          fields linearly rescale to. *)
}

val default_config : config

type stop_reason = Capacity_floor | Fleet_dead | Max_epochs

type sample = { hz_epoch : float; hz_capacity : float; hz_skew : Plim_telemetry.Wear.skew }

type result = {
  r_strategy : strategy;
  r_fault_rate : float;
  r_endurance : float;
  r_epochs : float;            (** epochs simulated before stopping *)
  r_stop : stop_reason;
  r_ttff : float option;       (** epoch of the first cell wear-out death *)
  r_half_life : float option;
      (** first epoch the fleet is at half its design capacity *)
  r_final_capacity : float;
  r_dead_shards : int;
  r_alive_shards : int;
  r_sampled_epochs : int;      (** really-executed epochs *)
  r_total_writes : float;      (** modelled writes across the fleet *)
  r_skew : Plim_telemetry.Wear.skew;
  r_trajectory : sample list;
  r_epoch_seconds : float;
  r_project_factor : float;
}

type power_on = {
  remap : Plim_fault.Remap.t;  (** the shard's spare-line table after the scrub *)
  dead : bool array;           (** per physical line: permanently faulty *)
  alive : bool;                (** every logical line landed on a live line *)
}

val power_on : config -> id:int -> cells:int -> power_on
(** The power-on scrub of model shard [id] over [cells] logical lines
    and [model_spares] spares: sample the shard's permanent faults
    ({!Shard.fault_spec} of [fault_spec]) and remap each logical line in
    ascending order off dead physical lines.  The scrub stops at the
    first line the spare pool cannot rescue, which kills the shard.
    {!run} builds every shard model from it and {!Plim_certify} reads
    the surviving spare pool from it. *)

val run : ?pool:Plim_par.t -> config -> result
(** One campaign.  Deterministic: a pure function of the config — the
    pool parallelises sampled-epoch batches without affecting any
    value. *)

val cells :
  config ->
  strategies:strategy list ->
  fault_rates:float list ->
  (strategy * float * config) list
(** The strategy × fault-rate grid, strategies outer: one config per
    cell, with [fault_spec] set to {!spec_of_rate} of the rate.  Both
    {!grid} and {!Plim_certify.grid} map over it. *)

val grid :
  ?pool:Plim_par.t ->
  config ->
  strategies:strategy list ->
  fault_rates:float list ->
  (strategy * float * result) list
(** {!run} on every one of {!cells}, in submission order
    (byte-identical at any [-j] width).  Each rate becomes a coupled-
    threshold {!Plim_fault.Fault_model} spec (2/3 SA0, 1/3 SA1), so fault
    sets are supersets along the rate axis. *)

val spec_of_rate : ?seed:int -> float -> Plim_fault.Fault_model.spec

val years_of : result -> float -> float
(** Convert epochs to simulated years at the result's [epoch_seconds]. *)

val cell_label : strategy -> float -> string
(** [cell_label strategy fault_rate] is ["<strategy>/r<rate>"], the
    label of one grid cell in horizon and certificate rows alike. *)

val label : result -> string
(** {!cell_label} of the result's strategy and fault rate, the default
    row label. *)

val sentinel_epochs : float option -> float
(** The one [-1] sentinel rule, shared by [plim-horizon/v1] lifetimes and
    [plim-cert/v1] bounds: the value when present and finite, [-1.0] for
    [None] {e and} for non-finite values
    ({!Plim_stats.Lifetime.epochs_to_threshold} returns bare [infinity]
    for "never reached", which a no-nulls/no-infinities JSON schema
    folds into the same "did not happen" sentinel). *)

val row_json : ?label:string -> result -> Plim_telemetry.Json.t
(** One [plim-horizon/v1] row.  Optional lifetimes that never happened
    before the stop are encoded as [-1] (the schema carries no nulls);
    the trajectory is decimated to at most 48 points. *)
