(** Fault models for resistive crossbar cells.

    Real RRAM arrays do not die wholesale: individual cells get stuck in
    one resistance state (manufacturing defects or wear-out) or
    occasionally fail to switch during a write pulse (transient set/reset
    failure, increasingly likely as the cell wears).  This module
    describes {e which} faults exist; {!Faulty} applies them to a
    crossbar.

    Three fault classes are modelled:

    - {b stuck-at-HRS} (SA0): the cell always reads 0, writes do not take;
    - {b stuck-at-LRS} (SA1): the cell always reads 1;
    - {b transient write failure}: a write pulse leaves the old state with
      probability [transient + transient_growth * writes_so_far] — the
      wear-dependent switching-failure curve of endurance-limited
      memories.

    Permanent faults are sampled with {e coupled thresholds}: each cell
    draws one seed-derived uniform [u] and is faulty iff
    [u < sa0 + sa1].  Scaling the rates up therefore only {e adds} faults
    — fault sets are monotone in the injected rate, which makes
    degradation sweeps well-ordered by construction (a higher rate can
    never yield a healthier array). *)

type kind = Stuck_at_0 | Stuck_at_1

type spec = {
  sa0 : float;              (** per-cell probability of stuck-at-HRS *)
  sa1 : float;              (** per-cell probability of stuck-at-LRS *)
  transient : float;        (** base per-write switching-failure probability *)
  transient_growth : float; (** added failure probability per prior write *)
  seed : int;               (** stream seed for both sampling processes *)
}

val none : spec
(** No faults at all; wrapping a crossbar with [none] is behaviourally
    identical to the bare crossbar. *)

val make : ?sa0:float -> ?sa1:float -> ?transient:float -> ?seed:int -> unit -> spec
(** All fields default to their [none] values (seed 0x5EED); a growing
    transient rate is set through {!parse}'s [growth] key.
    @raise Invalid_argument on negative rates or [sa0 + sa1 > 1]. *)

val parse : string -> (spec, string) result
(** Parse a CLI spec such as ["sa0:0.01,sa1:0.005,transient:1e-4,growth:1e-6,seed:42"].
    Keys: [sa0], [sa1], [transient] (or [t]), [growth], [seed]; all
    optional, comma-separated, in any order. *)

val to_string : spec -> string
(** Inverse of {!parse} (modulo float formatting). *)

val pp : Format.formatter -> spec -> unit

val cell_fault : spec -> int -> kind option
(** The permanent fault (if any) of cell [i] under this spec — a pure
    function of [(seed, i)], usable as an oracle by a fault-aware
    allocator before any array exists. *)

val sample_permanent : spec -> cells:int -> (int * kind) list
(** All permanently faulty cells in [0, cells), ascending. *)

val transient_fires : spec -> writes:int -> Plim_util.Splitmix.t -> bool
(** Whether the next write to a cell that has already sustained [writes]
    writes fails to switch: a uniform draw from the rng falls below the
    switching-failure probability [transient + growth * writes] (clamped
    to [0, 1]).  Draws only when that probability is positive, so a spec
    without transients consumes no randomness.  Allocates nothing. *)
