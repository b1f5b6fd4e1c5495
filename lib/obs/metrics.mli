(** Process-global named metrics: monotonic counters, gauges and
    distribution histograms.

    Counters are registered once (at module initialisation of the
    instrumented code) and incremented on hot paths — an increment is a
    single mutable-field bump, cheap enough to leave permanently enabled.
    Histograms record full value distributions (per-cell write counts,
    per-phase latencies) with bounded memory; see
    {!Plim_telemetry.Histogram}.  [snapshot] renders the whole registry
    for reporting; [reset] zeroes every value while keeping the
    registrations, so tests and repeated CLI commands can measure
    deltas. *)

type counter
type gauge
type histogram

val counter : string -> counter
(** [counter name] returns the counter registered under [name], creating
    it (at zero) on first use.  The same name always yields the same
    counter. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1) to the counter.  [by] must be non-negative. *)

val gauge : string -> gauge
(** Get-or-create, like {!counter}. *)

val set_gauge : gauge -> float -> unit

val add_gauge : gauge -> float -> unit
(** Accumulate a (possibly negative) delta onto the gauge under the
    registry lock — for levels maintained incrementally across batches,
    like the serve fleet's cumulative physical-write gauge. *)

val get : string -> int
(** Current value of the counter registered under [name]; 0 if no such
    counter exists. *)

val histogram : string -> histogram
(** Get-or-create, like {!counter}. *)

val observe : histogram -> int -> unit
(** Record one non-negative value into the distribution.
    @raise Invalid_argument on negative values. *)

type value =
  | Counter of int
  | Gauge of float
  | Hist of Plim_telemetry.Histogram.t

val snapshot : unit -> (string * value) list
(** Every registered metric, sorted by name.  Histograms are copied, so
    the snapshot is immune to later observations. *)

val reset : unit -> unit
(** Zero all counters, gauges and histograms; registrations survive. *)

val pp_snapshot : Format.formatter -> (string * value) list -> unit
(** One [name value] line per metric; histograms render as a
    [count/mean/quantile] summary line. *)
