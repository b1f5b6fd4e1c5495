(** Log-bucketed histograms over non-negative integers (HDR-histogram
    style).

    Values below 32 get exact buckets; above that, each power of two is
    split into 32 linear sub-buckets, so quantile estimates carry at most
    ~3.2% relative quantization error while the whole structure stays a
    flat int array.

    Used for per-cell write-count distributions and per-phase latency
    distributions (in microseconds). *)

type t

val create : unit -> t
(** An empty histogram. *)

val observe : t -> int -> unit
(** [observe t v] records one observation of value [v].
    @raise Invalid_argument if [v] is negative. *)

val of_array : int array -> t
(** Histogram of every element (e.g. a crossbar's write counts). *)

val clear : t -> unit
(** Drop all observations; the bucket storage is retained. *)

val copy : t -> t

val count : t -> int
val sum : t -> int

val min_value : t -> int
(** Smallest recorded value, exact; 0 when empty. *)

val max_value : t -> int
(** Largest recorded value, exact; 0 when empty. *)

val mean : t -> float

val quantile : t -> float -> int
(** [quantile t q] with [q] in [0,1]: nearest-rank quantile over the
    bucketed distribution.  The result [est] brackets the exact
    nearest-rank quantile [x] of the recorded samples:
    [x <= est <= high] where [(_, high) = value_bounds x].
    [quantile t 1.0 = max_value t] and [quantile t 0.0 >= min_value t].
    0 when empty.
    @raise Invalid_argument if [q] is outside [0,1]. *)

val p50 : t -> int
val p90 : t -> int
val p99 : t -> int

val value_bounds : int -> int * int
(** [(low, high)] range of the bucket a value falls in — the guaranteed
    quantization bracket.  [high - low < max 1 (low / 32)]. *)

val to_json : t -> Json.t
(** One JSON object: count/sum/min/max/mean, p50/p90/p99 and the
    non-empty buckets as [[low, high, count]] triples. *)

val pp : Format.formatter -> t -> unit
