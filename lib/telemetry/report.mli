(** Trajectory engine: diff two plim-bench result files and gate on
    regressions.

    Accepts both [plim-bench/v1] and [plim-bench/v2] files; only the
    metrics present in {e both} files are compared (v1 lacks the
    quantile and skew columns), so a v2 run can be gated against a v1
    baseline during migration.

    Every compared metric is a cost (instructions, devices, write
    max/stdev/tail, storage spans, wear skew): a metric {e regresses}
    when the current value exceeds the baseline by more than both the
    relative [threshold_pct] and the absolute [min_abs], so two
    identical files always report exactly zero regressions.  Wall-clock
    [phases] never gate.

    [plim-serve/v1] rows (the ["serve"] array) are folded into the same
    comparison as pseudo-benchmarks keyed ["serve:<label>"], tracking
    latency quantiles, total cycles, group-latency quantiles (when the
    fleet declares a crossbar geometry), fleet wear skew, cache misses
    and failure counts; their wall-clock throughput fields are excluded
    like the phases.

    [plim-bench/v2] ["geometry"] rows — the crossbar-geometry backend's
    area/latency trade-off curve — fold in as pseudo-benchmarks keyed
    ["geometry:<benchmark>@<grid>"], gating on group count, cross-row
    singletons, widest group and instruction count. *)

type delta = {
  benchmark : string;
  config : string;
  metric : string;
  baseline : float;
  current : float;
  change_pct : float;   (** [(current - baseline) / baseline * 100];
                            [nan] when [from_zero] — growth from a zero
                            baseline has no meaningful percentage *)
  from_zero : bool;     (** [baseline = 0] and [current > 0]: gates like
                            any growth, but is ranked separately (by
                            absolute growth, after every finite-percentage
                            regression) instead of being pinned to a
                            percentage sentinel *)
  regression : bool;
}

type comparison = {
  baseline_path : string;
  current_path : string;
  baseline_schema : string;
  current_schema : string;
  threshold_pct : float;
  deltas : delta list;          (** every compared metric, file order *)
  regressions : delta list;     (** finite-percentage regressions first
                                    (worst growth on top), then the
                                    [from_zero] block ranked by absolute
                                    growth *)
  improvements : delta list;    (** shrank beyond threshold, best first *)
  baseline_only : string list;  (** benchmark/config keys that vanished *)
  current_only : string list;   (** keys with no baseline counterpart *)
  new_metrics : string list;    (** ["key/metric"] entries present only in
                                    the current file within matched rows —
                                    reported as new (never gated, never
                                    silently dropped) until a baseline
                                    refresh covers them *)
}

val compare_files :
  ?threshold_pct:float ->
  ?min_abs:float ->
  baseline:string ->
  current:string ->
  unit ->
  (comparison, string) result
(** Parse and compare two result files.  [threshold_pct] defaults to
    2.0 (a metric must grow by more than 2% to gate), [min_abs] to 1e-9
    (identical floats never gate).  [Error] carries a parse/IO/schema
    message. *)

val has_regressions : comparison -> bool

val render : ?verbose:bool -> comparison -> string
(** Human-readable report; ends with a ["N regressions, M improvements"]
    line (the CI grep target).  [verbose] lists every improvement
    instead of the top 10. *)

val to_json : comparison -> Json.t
(** [plim-report/v1] JSON document of the comparison. *)
