(** Lifetime estimation for an RRAM array under repeated execution of one
    compiled PLiM program.

    RRAM endurance is 1e10..1e11 writes per cell (paper, Section I).  A
    program that writes cell [i] [w_i] times per execution can run at most
    [endurance / max_i w_i] times before the most-stressed cell wears out.
    Balancing writes raises that bound toward the ideal
    [endurance * count / total_writes]. *)

type t = {
  executions_to_first_failure : float;
      (** [endurance / max_writes]; infinite when no cell is ever written. *)
  ideal_executions : float;
      (** perfectly-balanced bound: [endurance * cells / total_writes]. *)
  balance_efficiency : float;
      (** ratio of the two above, in (0, 1]; 1 = perfectly level wear. *)
}

val estimate : endurance:float -> int array -> t
(** [estimate ~endurance writes] from per-cell write counts of one
    execution. *)

val pp : Format.formatter -> t -> unit

(** {1 Accelerated-time extrapolation}

    Pure float math behind {!Plim_serve.Horizon}: wear advances linearly
    at a per-cell rate (writes per epoch) between sampled epochs, so whole
    device lifetimes — years of traffic — collapse into a handful of
    closed-form jumps.  All functions are deterministic and allocation
    order independent, which keeps horizon campaigns byte-identical at any
    [-j] width. *)

val fast_forward_into : epochs:float -> wear:float array -> rate:float array -> unit
(** [fast_forward_into ~epochs ~wear ~rate] advances [wear] in place by
    [epochs] more epochs at constant per-cell rates:
    [wear.(i) <- wear.(i) +. epochs *. rate.(i)].  Equals replaying the
    same per-epoch deltas [epochs] times (exactly, for integer-valued
    inputs within the float-exact range).
    @raise Invalid_argument on length mismatch or negative [epochs]. *)

val epochs_to_threshold : threshold:float -> wear:float array -> rate:float array -> float
(** Smallest [e >= 0] such that some cell reaches the threshold:
    [wear.(i) +. e *. rate.(i) >= threshold].  [0] when a cell is
    already at or past the threshold.

    {b Contract:} the return value is a bare [infinity] — not a sentinel,
    not an option — whenever no cell can ever reach the threshold: every
    rate is [0.0] (an idle fleet between sampled epochs) or the arrays
    are empty.  Callers doing arithmetic can rely on IEEE semantics
    ([min x infinity = x], so an idle shard never wins the
    next-event race); callers {e serializing} must map non-finite values
    themselves — {!Plim_serve.Horizon.sentinel_epochs} is the canonical
    mapping to the [-1] JSON sentinel. *)

val half_life : initial:float -> (float * float) list -> float option
(** [half_life ~initial trajectory] is the first epoch in the ascending
    [(epoch, capacity)] step curve where capacity has dropped to half of
    [initial], or [None] if it never does. *)
