(** MIG rewriting recipes.

    [algorithm1] is the rewriting loop of the original PLiM compiler
    (Soeken et al., DAC'16 [21], reproduced as Algorithm 1 in the paper);
    [algorithm2] is the endurance-aware variant proposed by the paper
    (Algorithm 2): Ψ.C is dropped (it removes single complemented edges,
    which are *ideal* for RM3) and Ω.A is sandwiched between inverter-
    propagation passes to maximise the number of nodes with exactly one
    inverted child. *)

module Mig = Plim_mig.Mig

type pass = Axioms.rule list

val run_pass : ?name:string -> Mig.t -> pass -> Mig.t
(** One bottom-up rebuild applying the first matching rule per node
    (Ω.M always applies through the hash-consed constructor).  [name]
    labels the pass in emitted trace events (default ["pass"]).

    [run_pass] never mutates its argument, and it may return it physically:
    when the argument is compact ({!Mig.is_compact}) and no rule would fire
    on it, the rebuild would reproduce it node for node, so it is skipped
    (counted by the [rewrite.passes_skipped] metric). *)

type recipe = No_rewriting | Algorithm1 | Algorithm2

val recipe_name : recipe -> string

val run : recipe -> effort:int -> Mig.t -> Mig.t
(** [run recipe ~effort g] applies [effort] cycles of the recipe
    (the paper uses effort = 5) and returns a cleaned-up graph, never [g]
    itself.  A pass whose rule list was already found quiet on the current
    graph (it returned that graph unchanged) is not scanned again: it
    returns the graph and counts as skipped.  A pass that rebuilds the
    graph forgets every quiet list.  So once a cycle returns its input
    unchanged, the remaining cycles cost only their counters.
    [No_rewriting] returns a cleanup copy (the naive flow). *)

val algorithm1 : effort:int -> Mig.t -> Mig.t
val algorithm2 : effort:int -> Mig.t -> Mig.t
