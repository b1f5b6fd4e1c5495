(** Structural AND-inverter frontend.

    The EPFL benchmarks are distributed as AIGs (AND-inverter graphs); the
    PLiM toolflow reads them into MIGs whose every node is a degenerate
    majority [<a b 0>], and only then does MIG rewriting restructure them
    (DAC'16 / this paper).  [expand] reproduces that input shape: it
    rewrites an arbitrary MIG so that every majority node becomes an
    AND/inverter network (5 conjunctions per true majority), which is what
    the naive compiler sees and what gives Algorithms 1 and 2 their
    optimisation headroom. *)

module Mig = Plim_mig.Mig

val expand : Mig.t -> Mig.t
(** Functionally equivalent graph in AND-inverter form: the only majority
    nodes are [<x y 0>]-shaped (possibly with complemented edges).  It is
    built by hash-consing, and returned without its structural hash
    ({!Mig.drop_strash}). *)

val is_aig : Mig.t -> bool
(** True when every reachable majority node has a constant child. *)
