(** Seeded random MIG generation.

    Used by property-based tests (random functional workloads for the
    compiler) and as the substitution substrate for the EPFL random-control
    benchmarks whose structural netlists are not publicly specified
    (see DESIGN.md, Section 2). *)

type profile = {
  compl_prob : float;    (** probability that a child edge is complemented *)
  locality : int;
      (** children are drawn from the last [locality] created signals
          (plus inputs), producing deep, control-like structure; use a
          large value for flat random logic *)
  const_prob : float;    (** probability of a constant child (AND/OR-like nodes) *)
  input_prob : float;    (** probability that a child is a uniform primary input,
                             keeping all PIs in use despite locality *)
}

val control_profile : profile
(** Mux/and-or flavoured: moderate complement density, strong locality,
    occasional constant children — mimics decoded control logic. *)

val random :
  ?profile:profile ->
  seed:int ->
  num_inputs:int ->
  num_nodes:int ->
  num_outputs:int ->
  unit ->
  Mig.t
(** Generates a connected random MIG.  Node count is approximate: Ω.M
    reductions and hash-consing may merge some candidates, in which case
    generation retries with fresh children (the result has exactly
    [num_nodes] majority nodes unless the space is exhausted).  Outputs are
    chosen from the most recently created nodes so (almost) the whole graph
    is reachable.  The graph is returned without its structural hash
    ({!Mig.drop_strash}). *)
