(** End-to-end PLiM compilation: MIG rewriting, scheduling, translation,
    allocation, and write-traffic reporting.

    The presets correspond to the paper's experimental columns:

    - {!naive}: node translation only (no rewriting, original node order,
      LIFO device reuse) — the baseline of every "impr." column;
    - {!dac16}: the PLiM compiler of DAC'16 [21] (Algorithm 1 rewriting +
      release-first node selection);
    - {!min_write}: [dac16] plus the minimum write count strategy;
    - {!endurance_rewrite}: [min_write] with the endurance-aware rewriting
      (Algorithm 2) instead of Algorithm 1;
    - {!endurance_full}: [endurance_rewrite] plus the endurance-aware node
      selection (Algorithm 3) — the paper's full proposal;
    - [with_cap w]: add the maximum write count strategy (Table III). *)

module Mig = Plim_mig.Mig
module Recipe = Plim_rewrite.Recipe
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats

type config = {
  rewriting : Recipe.recipe;
  effort : int;                  (** rewriting cycles; the paper uses 5 *)
  selection : Select.policy;
  allocation : Alloc.strategy;
  max_write : int option;        (** the maximum write count strategy *)
  dest_min_write : bool;         (** ablation-only destination tie-break *)
}

val naive : config
val dac16 : config
val min_write : config
val endurance_rewrite : config
val endurance_full : config
val with_cap : int -> config -> config
val config_name : config -> string

type result = {
  program : Program.t;
  rewritten : Mig.t;            (** the MIG actually compiled *)
  write_summary : Stats.summary;
}

val compile : ?is_faulty:(int -> bool) -> config -> Mig.t -> result
(** [is_faulty] enables the fault-aware allocation mode
    ({!Alloc.create}): the compiled program avoids the marked physical
    devices entirely, trading #R for fault immunity without runtime
    remapping. *)

val compile_rewritten : ?is_faulty:(int -> bool) -> config -> Mig.t -> result
(** Like {!compile} but assumes the argument has already been rewritten
    (skips the rewriting phase) — used to share rewriting work across the
    many configurations of one benchmark. *)
