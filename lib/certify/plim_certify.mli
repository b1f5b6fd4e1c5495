(** Static endurance certification: abstract interpretation of the whole
    serve system.

    {!Plim_serve.Horizon} {e measures} device lifetime by simulating
    sampled traffic; this module {e derives} sound lower/upper bounds on
    the same quantities — time to first wear-out death and capacity
    half-life — from the instruction streams and the workload spec alone,
    without running a single request.  The simulator is then gated
    against its own certificates: every [plim-horizon/v1] row must fall
    inside the static bracket of its grid cell, which turns the closed
    forms of the wear-leveling literature (WoLFRaM, arXiv 2010.02825;
    endurance-limited capacity, arXiv 2109.09932) into a CI invariant
    instead of a claim.

    {2 The abstraction}

    Everything deterministic in the horizon model is replayed exactly;
    only the per-epoch Zipfian request sampling is abstracted into an
    interval:

    - {e per-program write vectors} come from
      {!Plim_analyze.write_counts} of each mix program compiled under the
      server pipeline — provably equal to what any execution performs;
    - {e fleet writes per epoch} are bracketed by
      [[requests * min len, requests * max len]] over the programs that
      fit a shard.  The lower end collapses to 0 when [compile_ratio > 0]
      (an epoch can sample only compiles, which wear nothing) — upper
      lifetime bounds are then unbounded, honestly;
    - {e placement} is abstracted away on the pessimistic side: the
      least-worn invariant lets a whole epoch concentrate on one shard,
      so the per-cell rate upper bound assumes it does;
    - {e leveling} bounds the per-cell rate with each strategy's
      {!Plim_rram.Leveling.cell_rate_bound} and its composed
      {!Plim_rram.Leveling.overhead}, the same module the simulator's
      closed form comes from;
    - the {e power-on fault population} and spare-pool scrub are pure
      functions of the per-shard derived seeds and are replayed
      verbatim, giving the exact starting capacity and the minimum
      number of wear deaths that can kill each shard.

    Bounds use [infinity] for "unbounded"; the JSON encodes it as [-1]
    (the same no-nulls convention as the horizon sentinel).

    {2 Race detector}

    {!Race} is an independent happens-before checker for {e arbitrary}
    row-parallel instruction groupings: hazard edges (RAW, WAW, WAR) are
    derived from the {!Plim_analyze} def-use chains — a different code
    path from the flat-stream scan inside {!Plim_geometry.validate} — so
    the two rejecting exactly the same adversarial schedules is a real
    cross-check, run by the {!Plim_check} conformance matrix and
    [plimc lint --geometry]. *)

module Horizon = Plim_serve.Horizon

(** {1 Group-schedule race detection} *)

module Race : sig
  type hazard = Raw | Waw | War

  val hazard_name : hazard -> string
  (** ["RAW"], ["WAW"], ["WAR"]. *)

  type edge = {
    e_before : int;  (** instruction index that must execute first *)
    e_after : int;   (** instruction index that must execute later *)
    e_cell : int;    (** the cell carrying the dependency *)
    e_hazard : hazard;
  }

  val edges : Plim_isa.Program.t -> edge list
  (** Every happens-before edge of the program, derived from the
      def-use chains: RAW (def to each of its uses), WAW (consecutive
      defs of one cell) and WAR (each use to the next def).  The
      external PI load (def index [-1]) generates no edges, and an
      instruction that reads its own destination is not an edge to
      itself.  [set_const] destinations deliberately carry no RAW edge
      from the previous value — this model is strictly weaker than
      {!Plim_geometry}'s (which treats the destination as always read),
      which is why scheduler output always passes the detector. *)

  val check_groups :
    Plim_isa.Program.t -> int array array -> (unit, string) result
  (** [check_groups p groups] verifies an {e arbitrary} grouping claim:
      every instruction index appears exactly once across the groups
      (empty groups are permitted), and every hazard edge lands in
      strictly increasing groups — two hazard-ordered instructions in
      the same group are a race, and the first violated edge in
      {!edges} order is the one reported (walked straight off
      {!Plim_analyze.chains}, without building the list).  Programs
      with use-before-def errors
      are rejected up front (their read order is not representable in
      the def-use IR).  Row confinement and area are deliberately not
      checked here; this is the pure happens-before half of
      {!Plim_geometry.validate}. *)

  val check_schedule :
    Plim_isa.Program.t -> Plim_geometry.schedule -> (unit, string) result
  (** {!check_groups} on the schedule's groups. *)
end

(** {1 Wear-bound certificates} *)

type bound = {
  lower : float;  (** sound lower bound, possibly [infinity] ("never") *)
  upper : float;  (** sound upper bound, [infinity] when unbounded *)
}

type program_profile = {
  p_label : string;
  p_instructions : int;  (** fault-free shard wear of one execution *)
  p_cells : int;
  p_wmax : int;          (** largest per-cell static write count *)
  p_mass : float;        (** Zipfian popularity mass of this program *)
  p_fits : bool;         (** whether the program fits a shard's lines *)
}

type t = {
  c_strategy : Horizon.strategy;
  c_fault_rate : float;
  c_endurance : float;
  c_epoch_requests : int;
  c_compile_ratio : float;
  c_zipf : float;
  c_shards : int;          (** initially active server shards *)
  c_spare_shards : int;
  c_lines : int;           (** logical lines per server shard *)
  c_meas : int;            (** measured cells: lines + cell spares *)
  c_cells : int;           (** model logical lines ({!Plim_rram.Leveling.lines} of meas) *)
  c_physical : int;        (** model physical lines: cells + model spares *)
  c_alive0 : int;          (** shards alive after the power-on scrub *)
  c_capacity0 : float;     (** alive0 / total shards *)
  c_overhead : float;      (** composed leveling overhead of the strategy *)
  c_writes : bound;        (** fleet writes per epoch *)
  c_rate_cell_upper : float;  (** per-cell writes/epoch upper bound *)
  c_ttff : bound;          (** epochs to the first wear-out death *)
  c_half_life : bound;     (** epochs to half design capacity *)
  c_deaths_to_half : int;  (** shard deaths separating alive0 from half *)
  c_line_deaths_lower : int;  (** minimum line deaths causing those *)
  c_expected_ttff : float;
      (** Zipf-weighted balanced-placement point estimate; reported for
          context, never part of the sound bracket and never gated *)
  c_programs : program_profile list;
}

val certify : Horizon.config -> t
(** The certificate of one grid cell, from the config alone.  The
    fleet decisions come from their one owner, exactly as the simulator
    takes them: shard lines from {!Plim_serve.Server.shard_lines} over
    the compiled mix, and each shard's survival and spare pool from
    {!Horizon.power_on}.
    @raise Invalid_argument on an empty mix, a non-positive
    endurance/epoch_requests, invalid levelling parameters
    ({!Plim_rram.Leveling.validate}) or a fleet
    {!Plim_serve.Server.validate_config} rejects, mirroring
    [Horizon.run]. *)

val grid :
  Horizon.config ->
  strategies:Horizon.strategy list ->
  fault_rates:float list ->
  (Horizon.strategy * float * t) list
(** {!certify} on every one of {!Horizon.cells}, the grid
    {!Horizon.grid} simulates, so cell labels match row labels. *)

val label : t -> string
(** {!Horizon.cell_label} of the certificate's strategy and fault rate,
    identical to {!Horizon.label} of the simulated cell. *)

val row_json : ?label:string -> t -> Plim_telemetry.Json.t
(** One [plim-cert/v1] row.  Unbounded bound endpoints are encoded as
    [-1] (the schema carries no nulls or infinities); everything else is
    finite.  [label] overrides the default {!label} (variant grids of
    one cell need distinct row labels). *)

val check_result : t -> Horizon.result -> (unit, string) result
(** Does the simulated cell fall inside the static bracket?  Checks the
    strategy/endurance/fault-rate identity first, then both lifetimes:
    a recorded lifetime must lie in [[lower, upper]]; an unrecorded one
    ([None]) is only consistent if the campaign stopped before the
    static upper bound.  Comparisons carry a relative slack of 1e-6 to
    absorb the simulator's event epsilon. *)

val check_row_json :
  (Horizon.strategy * float * t) list ->
  Plim_telemetry.Json.t ->
  (string, string) result
(** Check one parsed [plim-horizon/v1] row against the certificate
    its label names (exactly, or as the base cell of a
    ["<cell label>/<suffix>"] variant label): [Ok label] when the row
    passes the same identity and bracket check as {!check_result},
    [Error] when it
    escapes, names another strategy, endurance or fault rate, has no
    matching certificate or lacks a field.  [-1] lifetimes are treated
    as "did not happen" exactly like {!Horizon.row_json} emits them. *)

val read_rows : string -> (Plim_telemetry.Json.t list, string) result
(** The rows of a file to check: a results object (its ["horizon"]
    array), a bare array of rows, JSON lines (one row per non-blank
    line, as [plimc horizon --json] writes them), or a single row (an
    object with no ["horizon"] member).  [Error "PATH: reason"] when the
    file cannot be read, its ["horizon"] member is not an array, or it
    is neither one JSON document nor JSON lines (naming the first bad
    line).  The rows themselves are not validated here. *)
