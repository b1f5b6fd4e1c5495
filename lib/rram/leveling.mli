(** Wear-levelling strategies: what each one does to per-line wear.

    The paper's endurance management is compiler-level; the architectural
    alternative it contrasts against is wear levelling below the ISA,
    Start-Gap ([8]) and WoLFRaM-style programmable remapping (arXiv
    2010.02825).  This module is the single model of that layer, and
    every consumer derives from it:

    - {!Plim_machine.Campaign} executes programs through the {!stack} of
      a strategy on an endurance-limited crossbar;
    - {!Plim_serve.Horizon} applies the stationary per-line rates of
      {!line_rates} between sampled epochs;
    - {!Plim_certify} bounds the per-cell rate with {!cell_rate_bound}.

    {2 Per-strategy stationary rates}

    - [none] — the measured per-line deltas verbatim (exact: linear
      extrapolation of an unmanaged array is lossless while placement is
      stable);
    - [start_gap] — uniform over [n+1] lines with [1/psi] gap-copy
      overhead ({!Start_gap});
    - [wolfram_remap] — uniform over [n] lines with [n/period] re-key
      migration overhead ({!Wolfram});
    - [start_gap+wolfram] — uniform over [n+1] with both overheads
      compounded, the WoLFRaM result of programmable remapping {e under}
      rotation.

    Uniformity is the stationary distribution of each levelling layer;
    its mixing time (at most [n * psi] writes) is negligible against
    device lifetime, which is what makes the closed form sound.  The
    [lifetime] test suite pins {!replay} of the real layers against it.

    One asymmetry is deliberate ({!retires_worn_lines}): under
    [start_gap] {e alone} a wear-out death takes the whole array, because
    the rotation marches over a contiguous physical range and would copy
    straight into a retired line — classic Start-Gap composes with
    factory defect maps (power-on scrub still patches those) but not with
    wear-time spare retirement.  The programmable remap of
    [wolfram_remap] and [start_gap+wolfram] is exactly what restores
    graceful degradation. *)

type t = No_leveling | Start_gap | Wolfram_remap | Start_gap_wolfram

val all : t list
(** In canonical grid order: none, start_gap, wolfram_remap,
    start_gap+wolfram. *)

val name : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!name}; also accepts the aliases [wolfram] and [both]. *)

val lines : t -> int -> int
(** [lines t n] is the number of model lines backing [n] logical lines:
    [n + 1] under Start-Gap (the gap line), [n] otherwise. *)

val retires_worn_lines : t -> bool
(** Whether a worn-out line can be retired onto a spare.  [false] only
    for classic [start_gap]. *)

val validate : psi:int -> period:int -> unit
(** @raise Invalid_argument unless the Start-Gap rotation period [psi]
    and the WoLFRaM re-key [period] are both positive. *)

val overhead : t -> psi:int -> period:int -> lines:int -> float
(** Extra writes per logical write: [((1 + sg) * (1 + wf)) - 1] with
    [sg = 1/psi] under Start-Gap and [wf = lines/period] under WoLFRaM,
    each [0] when its layer is absent.
    @raise Invalid_argument as {!validate}, whatever the strategy. *)

val line_rates : t -> overhead:float -> cells:int -> int array -> float array
(** [line_rates t ~overhead ~cells delta] maps one sample of per-line
    write deltas to the stationary per-line rates over [cells] model
    lines: [delta] verbatim (zero past its end) under [none], otherwise
    the levelled rate of [sum delta] on every line: [sum delta] spread
    uniformly over [cells], scaled by [1 + overhead]. *)

val cell_rate_bound :
  t -> overhead:float -> cells:int -> total:float -> hottest:float -> float
(** Upper bound on any one cell's rate when [total] writes land per unit
    of time and no logical line takes more than [hottest] of them: the
    [hottest] line itself under [none], the levelled rate otherwise.
    Never below the largest of {!line_rates} for a delta with that sum
    and maximum.
    @raise Invalid_argument under a levelling strategy if [cells <= 0] or
    [overhead < 0] (as does {!line_rates}). *)

(** {1 Execution} *)

type stack
(** The address stack of a strategy over [n] logical lines: logical →
    WoLFRaM permutation → Start-Gap rotation → physical line. *)

val stack : ?psi:int -> ?period:int -> ?seed:int -> t -> int -> stack
(** [stack t n], with Start-Gap period [psi] (default 100), re-key
    [period] (default 50_000) and permutation [seed] (default 0x901F). *)

val num_physical : stack -> int
(** [lines t n]. *)

val physical : stack -> int -> int
(** Current physical line of a logical address. *)

val write : stack -> on_copy:(int -> unit) -> int -> unit
(** Record one logical write, which the caller performs at {!physical}
    beforehand.  [on_copy] receives each physical line that takes a
    levelling copy because of it: Start-Gap gap moves first, then WoLFRaM
    re-key migrations, through the current rotation. *)

val replay : ?psi:int -> ?period:int -> t -> executions:int -> int array -> int array
(** [replay t ~executions per_exec_writes] replays [executions] runs of a
    program that writes logical line [i] [per_exec_writes.(i)] times,
    interleaved round-robin (the favourable case for rotation), through a
    fresh {!stack} (default seed) and returns per-physical-line write counts including
    levelling copies — the empirical counterpart of {!line_rates}. *)
