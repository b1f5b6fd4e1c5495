(** Descriptive statistics over per-cell write counts.

    The paper reports the minimum, maximum and (population) standard
    deviation of the number of writes performed on each RRAM device of a
    compiled PLiM program (Tables I and III), and relative improvements of
    the standard deviation against a naive baseline. *)

type summary = {
  count : int;          (** number of cells *)
  min : int;
  max : int;
  total : int;          (** sum of all write counts *)
  mean : float;
  stdev : float;        (** population standard deviation *)
  p50 : int;            (** median write count (nearest-rank) *)
  p90 : int;
  p99 : int;
      (** the wear tail that informs device lifetime.  Beware the
          nearest-rank rule on small samples: with fewer than 100 cells
          the 0.99 rank rounds up to the last element, so [p99 = max] —
          it is a tail {e witness}, not an interpolated estimate, and
          only a lifetime bound through [max]. *)
}

val summarize : int array -> summary
(** The empty array summarises to all-zero fields.  Quantiles are
    nearest-rank, consistent with {!quantile}: the q-quantile of [n]
    sorted samples is element [ceil (q * n) - 1] (clamped to
    [[0, n-1]]).  No interpolation ever happens, so every reported
    quantile is a value that actually occurs in the data; for
    [n < 1 / (1 - q)] (e.g. [n < 100] at q = 0.99) the rank clamps to
    the last element and the quantile silently equals the maximum. *)

val mean_list : float list -> float
(** Average of a list; 0.0 on [[]] (never nan), so table averages over an
    empty benchmark selection stay finite. *)

val improvement_pct : baseline:float -> float -> float
(** [improvement_pct ~baseline v] is the paper's "impr." column:
    [(baseline - v) / baseline * 100].  Negative when [v] is worse.
    Returns 0 when [baseline] is 0. *)

val quantile : float -> int array -> int
(** [quantile q xs] with [q] in [0,1]; nearest-rank on a sorted copy —
    element [ceil (q * n) - 1], clamped.  [quantile 0.0] is the minimum,
    [quantile 1.0] the maximum, and any [q > (n-1)/n] returns the
    maximum (see the {!summary} [p99] caveat for small [n]).
    @raise Invalid_argument on an empty array or [q] outside [0,1]. *)

val histogram : bucket:int -> int array -> (int * int) list
(** [histogram ~bucket xs] buckets values into ranges of width [bucket] and
    returns [(bucket_start, count)] pairs for non-empty buckets, sorted. *)

val gini : int array -> float
(** Gini coefficient of the write distribution: 0 = perfectly balanced,
    -> 1 = concentrated on few cells.  A secondary balance metric used in
    the ablation benches. *)

val max_mean_ratio : summary -> float
(** Max-to-mean wear ratio of a summary: 1.0 when perfectly levelled.
    Returns 1.0 for all-zero distributions (nothing is concentrated). *)

val pp_summary : Format.formatter -> summary -> unit
