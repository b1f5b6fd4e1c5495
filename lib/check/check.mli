(** Differential conformance checking of the whole compiler stack.

    One MIG is compiled under a matrix of configurations (rewrite recipe
    on/off × write-count strategies × selection policies × write cap ×
    fault-aware allocation against a seeded fault map) and every program
    is checked against direct MIG evaluation, plus cross-cutting
    invariants:

    - {b functional}: exhaustive machine execution for ≤ 8 inputs
      ({!Plim_core.Verify.check_exhaustive}), sampled otherwise;
    - {b symbolic}: complete BDD equivalence
      ({!Plim_core.Verify.check_symbolic});
    - {b write-counts}: statically derived per-cell write counts equal the
      counts observed by the crossbar;
    - {b write-cap}: under the maximum write count strategy no device
      exceeds the cap (so a retired device is never written again);
    - {b lint}: the static dataflow analyzer ({!Plim_analyze}) reports no
      errors — use-before-def, dead writes, PO clobbers or (uncapped) RRAM
      leaks in compiler output are compiler bugs, shrunk and persisted
      like any other counterexample;
    - {b rewrite-function}: the rewritten MIG computes the same truth
      tables as the source;
    - {b fault-avoidance}: with fault-aware allocation the program never
      reads or writes a device the fault map marks bad;
    - {b geometry}: on a serial, a narrow and a near-square crossbar grid
      the row-parallel schedule ({!Plim_geometry}) validates, never takes
      more groups than instructions, degenerates to one group per
      instruction when [cols = 1], and grouped execution
      ({!Plim_machine.Plim_controller.run_grouped}) produces outputs and
      cycle counts identical to the flat controller on random vectors;
    - {b selection-differential}: the incremental lazy-heap node selector
      ({!Plim_core.Select}) pops exactly the sequence an independent
      naive reference selector (linear argmin over live candidate keys)
      produces, for every policy — the CONTRA-style cross-check that
      catches heuristic-order bugs no functional test can see. *)

module Mig = Plim_mig.Mig
module Select = Plim_core.Select

type failure = {
  config : string;     (** configuration name, or ["selection:<policy>"] *)
  invariant : string;  (** which invariant broke (names above) *)
  message : string;
}

val failure_to_string : failure -> string

val reference_order : Select.policy -> Mig.t -> int list
(** Naive re-implementation of the selection semantics: recompute every
    candidate key on every pop and take the argmin.  The oracle of the
    selection-differential check. *)

val selection_failures : Mig.t -> failure list

val run : Mig.t -> failure list
(** The full conformance suite: every matrix configuration, the
    fault-aware variants, and the selection differential.  An empty list
    means the MIG compiles correctly everywhere. *)
