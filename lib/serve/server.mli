(** The long-lived compile-and-execute service core.

    A {!t} owns a compile cache ({!Cache}) and a fleet of persistent
    crossbar shards ({!Shard}) and serves {!Workload.request} streams
    against them.  Requests are processed in fixed-size batches through
    a deterministic five-phase schedule:

    + {b classify} — consult the cache for every request in batch
      order; distinct missing digests become compile jobs;
    + {b compile} — missing programs compile in parallel on the
      {!Plim_par} pool and merge into the cache in submission order;
    + {b place} — sequentially route each execution to the least-worn
      eligible [Active] shard (wear read through {!Shard.total_writes}
      at batch start plus the static write footprint of work already
      placed this batch; ties break to the lowest shard id);
    + {b execute} — one parallel task per shard runs its queue in
      batch order, so every shard is touched by exactly one domain;
    + {b merge} — sequentially, in shard-id order: a shard whose
      spare-line pool ran dry is retired, a spare shard is activated,
      and the abandoned execution re-runs on the least-worn active shard
      (by {!Shard.total_writes}), until an attempt completes or the
      fleet is out of shards.

    Every request gets exactly one response.  An execution is rejected
    for one of four reasons: an unknown program digest, a program with
    more cells than a shard has lines, no active shard at placement, or
    a fleet that runs out of shards while replaying it.

    Phases 1, 3 and 5 are sequential and phases 2 and 4 partition
    their mutable state per task, so the response stream, every counter
    and all fleet wear state are byte-identical at any [-j] — the
    property the serve determinism checks replay.

    Compiles made visible by a batch serve all executions of the same
    batch regardless of their relative order within it. *)

module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Fault_model = Plim_fault.Fault_model
module Exec = Plim_fault.Exec
module Wear = Plim_telemetry.Wear
module Histogram = Plim_telemetry.Histogram

type config = {
  pipeline : Pipeline.config;
  shards : int;              (** initially [Active] shards *)
  spare_shards : int;        (** initially [Spare] shards *)
  lines : int;               (** logical lines per shard; 0 = size to the
                                 largest cached program at first use *)
  cell_spares : int;         (** spare lines per shard (within-shard repair) *)
  verify : bool;             (** write-verify every destructive operation *)
  fault_spec : Fault_model.spec;  (** per-shard seeds are derived from
                                      [fault_spec.seed] and the shard id *)
  endurance : int option;    (** per-cell write budget of shard crossbars *)
  check : bool;              (** compare outputs against a fault-free
                                 reference run; mismatches count as
                                 [incorrect] *)
  seed : int;
  geometry : Plim_geometry.grid option;
      (** physical [rows x cols] bound of every shard crossbar.  When
          set, shards refuse to materialise with more lines than the
          grid area, and each accepted execution additionally reports
          its latency in row-parallel instruction groups
          ({!Plim_machine.Plim_controller.static_groups}) *)
}

val default_config : config
(** [endurance_full] pipeline, 4 shards + 1 spare, auto lines, 8 cell
    spares, verify and check on, no injected faults, seed 1. *)

type response =
  | Compiled of { digest : string; cached : bool }
  | Executed of {
      digest : string;
      shard : int;           (** shard that produced the accepted outputs *)
      outputs : (string * bool) list;
      correct : bool option; (** [None] when [check] is off *)
      cycles : int;          (** simulated service cost: static cycles +
                                 verify reads + retries, summed over
                                 re-runs *)
    }
  | Rejected of { digest : string; reason : string }

type summary = {
  requests : int;
  compiles : int;            (** compile requests served *)
  executes : int;            (** execute requests accepted *)
  cache_hits : int;
  cache_misses : int;
  rejected : int;
  incorrect : int;           (** executions whose outputs differed from the
                                 fault-free reference *)
  re_runs : int;             (** executions replayed on another shard *)
  retired_shards : int;
  spare_activations : int;
  total_cycles : int;
  total_groups : int;        (** row-parallel groups over every accepted
                                 execution; 0 without a [geometry] *)
  exec_stats : Exec.stats;   (** fleet-wide write-verify totals *)
}

type t

val shard_lines : config -> cells:int list -> int
(** Logical lines per shard: [lines] when positive, otherwise the
    largest of [cells] (the cell counts of the cached programs), at
    least 1.  The one sizing rule: the fleet applies it to its cache
    when it materialises, and {!Plim_certify} to the compiled mix. *)

val validate_config : config -> unit
(** Raises [Invalid_argument] on a fleet {!create} cannot build: fewer
    than one active shard, or a negative spare shard, line or cell spare
    count. *)

val create : config -> t
(** A fresh server; raises like {!validate_config}. *)

val run : ?pool:Plim_par.t -> ?batch:int -> t -> Workload.request list ->
  response list
(** Serve the requests (batch size defaults to 32 and never affects
    results' values, only scheduling granularity); responses are in
    request order.  Without [pool] every phase runs sequentially —
    identical output, no parallelism. *)

val retire_drill :
  ?pool:Plim_par.t -> ?batch:int -> t -> Workload.request list ->
  retire:int list -> int list
(** The forced-retirement drill: {!run} the first half of the requests,
    {!force_retire} each of [retire] in order, then {!run} the rest, so
    the surviving and spare shards absorb it.  With [retire = []] this
    is one {!run} over all the requests.  Responses are dropped; the
    result is the ids {!force_retire} refused, in order. *)

val summary : t -> summary

val latency : t -> Histogram.t
(** Per-request simulated-cycle latency distribution (copy), cumulative
    over every {!run} on this server. *)

val group_latency : t -> Histogram.t
(** Per-execution latency in row-parallel instruction groups (copy);
    empty unless the config has a [geometry]. *)

val fleet_skew : t -> Wear.skew
(** Wear skew {e across} shards: one total-write sample per non-spare
    shard.  [gini] is the per-shard wear-skew metric the bench emits. *)

val shard_statuses : t -> (int * Shard.status * int) list
(** [(id, status, total_writes)] per shard, ascending id; empty before
    the fleet materialises. *)

val shard_wear : t -> (int * Shard.status * int array) list
(** [(id, status, per-cell write counts)] per shard, ascending id; empty
    before the fleet materialises.  The arrays are copies — diffing two
    snapshots around a batch yields the per-cell write {e rate} that
    {!Horizon} extrapolates between sampled epochs. *)

val force_retire : t -> int -> bool
(** Administratively retire a shard (the forced-retirement scenario).
    [false] if the fleet is not materialised yet, the id is unknown, or
    the shard is already retired. *)

val fleet_heatmap_json : t -> Plim_telemetry.Json.t
(** JSON document [{schema: "plim-serve-fleet/v1", shards: [...]}] with
    one {!Plim_telemetry.Wear.heatmap_json} entry per shard — the CI
    wear-heatmap artifact. *)

val row_json : t -> label:string -> wall_s:float -> Plim_telemetry.Json.t
(** One [plim-serve/v1] result row: the summary counters, latency
    p50/p99, fleet skew and throughput ([wall_s = 0] reports
    [requests_per_sec] as 0 — the deterministic mode). *)
