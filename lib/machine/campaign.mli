(** Empirical endurance campaigns: execute a compiled program repeatedly
    on an endurance-limited crossbar until the first device wears out.

    This closes the loop on the paper's motivation — the static
    {!Plim_stats.Lifetime} estimate (endurance / max writes per
    execution) is validated against an actual simulated wear-out, and
    architectural wear levelling ({!Plim_rram.Leveling}) can be layered
    underneath for comparison. *)

module Program = Plim_isa.Program

type wear_sample = {
  at_execution : int;             (** executions completed at the sample *)
  at_write : int;                 (** physical writes observed at the sample *)
  skew : Plim_telemetry.Wear.skew;(** wear-distribution snapshot *)
}
(** One point of a wear-trajectory curve.  Samples are taken at fixed
    execution boundaries through a decimating {!Plim_telemetry.Series},
    so arbitrarily long campaigns yield bounded curves whose contents
    are a pure function of the execution sequence — byte-identical
    between [-j 1] and [-j N] runs. *)

val trajectory_json : wear_sample list -> Plim_telemetry.Json.t
(** JSON array of [{at_execution, at_write, skew}] objects — the
    time-series column of bench results and fault reports. *)

val pp_trajectory : Format.formatter -> wear_sample list -> unit
(** Human-readable skew time series, one sample per line. *)

type outcome = {
  executions_completed : int;
  failed : bool;              (** false if [max_executions] was reached *)
  write_total : int;          (** physical writes performed overall *)
}

val run_until_failure :
  ?max_executions:int ->
  ?strategy:Plim_rram.Leveling.t ->
  ?psi:int ->
  endurance:int ->
  Program.t ->
  outcome
(** Repeated executions with fresh random inputs per run (seed 0xCAFE)
    on one shared crossbar whose cells hard-fail after [endurance]
    writes.  Stops at the first failure or after [max_executions]
    (default 100_000).

    [strategy] (default [No_leveling]) places a {!Plim_rram.Leveling.stack}
    between the program's cells and the crossbar — Start-Gap period [psi]
    and the stack's other defaults — so hot logical cells spread across
    the array over time.  Every levelling copy is charged to the
    crossbar as a real write, so the wear ledger stays exact. *)

(** {1 Graceful degradation}

    Where {!run_until_failure} measures "time to first crash", the
    degraded campaign runs the program behind the {!Plim_fault} layer:
    injected stuck-at faults and endurance wear-out become detectable
    stuck cells, write-verify spots them, and spare-line remapping keeps
    the program running.  The result is a capacity/correctness
    degradation profile instead of a single failure point. *)

type degradation_point = {
  at_execution : int;    (** executions completed when the point was taken *)
  capacity : float;      (** surviving-capacity fraction, in [0, 1] *)
  spares_left : int;
}

type ended =
  | Spares_exhausted of int  (** logical cell whose repair found no spare *)
  | Max_executions

type degradation = {
  executions : int;          (** executions fully completed *)
  correct : int;             (** executions whose outputs matched the oracle *)
  incorrect : int;
  injected : int;            (** permanent faults present at start *)
  worn_out : int;            (** cells that wore out during the campaign *)
  detections : int;          (** permanent-fault detections by write-verify *)
  remaps : int;              (** successful spare-line remaps *)
  verify_reads : int;        (** read-backs performed (the verify overhead) *)
  retries : int;             (** in-place rewrite attempts *)
  transient_failures : int;  (** write pulses that failed to switch *)
  final_capacity : float;
  spares_remaining : int;
  curve : degradation_point list;  (** chronological capacity curve *)
  degraded_write_total : int;      (** physical writes, including repair traffic *)
  ended : ended;
  trajectory : wear_sample list;   (** chronological wear-skew samples;
                                       counted physical writes only, so
                                       absorbed writes to stuck cells do
                                       not inflate the curve *)
  final_wear : int array;          (** per-physical-cell write counts at
                                       campaign end — the heatmap grid *)
}

val run_degraded :
  ?seed:int ->
  ?max_executions:int ->
  ?sample_every:int ->
  ?endurance:int ->
  ?spares:int ->
  ?verify:bool ->
  ?fault_spec:Plim_fault.Fault_model.spec ->
  ?oracle:(bool array -> bool array) ->
  Program.t ->
  degradation
(** [run_degraded p] executes [p] repeatedly with fresh random inputs on
    one shared crossbar of [num_cells + spares] physical lines wrapped in
    the fault layer.  [max_executions] defaults to 100, [spares] to 0,
    [verify] to on, [fault_spec] to {!Plim_fault.Fault_model.none}; with
    [endurance] cells additionally wear out and hard-fail as stuck-at
    faults.  [oracle] maps an input vector (PI declaration order) to the
    expected outputs (PO order) — typically [Plim_mig.Mig.eval mig] — and
    feeds the [correct]/[incorrect] tally; without it both stay 0.
    [sample_every] sets the wear-sampling period in executions (default
    [max_executions / 64], at least 1).
    @raise Invalid_argument when [sample_every < 1]. *)

val sweep_degraded :
  ?pool:Plim_par.t ->
  ?seed:int ->
  ?max_executions:int ->
  ?verify:bool ->
  ?oracle:(bool array -> bool array) ->
  fault_spec_of:(float -> Plim_fault.Fault_model.spec) ->
  rates:float list ->
  spare_budgets:int list ->
  Program.t ->
  degradation list
(** One {!run_degraded} campaign per (rate, spares) grid cell, every cell
    on its own crossbar and fault layer.  [fault_spec_of rate] builds the
    injection spec of a row.  The campaigns are returned in grid order —
    [rates] outer, [spare_budgets] inner — regardless of [pool] width, so
    sweep reports are byte-identical at every [-j] level.  Without [pool] the
    grid runs sequentially. *)
