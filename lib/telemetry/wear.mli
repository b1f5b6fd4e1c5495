(** Crossbar wear snapshots: skew metrics and heatmaps over a per-cell
    write-count grid.

    The paper's whole argument is about the *distribution* of writes
    across devices, not their total; these are the quantities that make
    the distribution observable over time: the write standard deviation
    (Tables I/III) lifted to a tracked time series, the Gini
    coefficient of the wear distribution, and the max-to-mean wear
    ratio (the lifetime tail).  All pure functions of the counts
    array — safe inside deterministic [-j N] campaigns. *)

type skew = {
  cells : int;
  total : int;
  max_writes : int;
  mean : float;
  stdev : float;     (** the paper's per-device write STDEV *)
  gini : float;      (** 0 = perfectly levelled, -> 1 = concentrated *)
  max_mean : float;  (** max wear / mean wear; 1.0 = perfectly levelled *)
  p99 : int;         (** tail write count *)
}

val skew_of : int array -> skew

val heatmap : int array -> string
(** ASCII heatmap: one shade character per cell ([' '] untouched through
    ['@'] = most worn), as many cells per row as the side of the smallest
    square that fits (at most 64), each row prefixed with its first cell
    index, followed by a scale/skew legend line. *)

val heatmap_json : label:string -> int array -> Json.t
(** JSON object [{label, width, skew, counts}] of the same snapshot. *)

val skew_json : skew -> Json.t

val pp_skew : Format.formatter -> skew -> unit
