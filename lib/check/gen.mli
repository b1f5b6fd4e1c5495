(** Seeded random MIG descriptions with structural shrinking.

    The fuzzer does not generate {!Plim_mig.Mig.t} values directly: hash
    consing and the Ω.M axiom make built graphs awkward to mutate.  It
    generates a plain {e description} — a sized DAG of majority nodes over
    explicit indices — and lowers it with {!to_mig}.  Descriptions shrink
    structurally (drop nodes, reroute edges to children, clear complement
    flags, drop outputs and unused inputs), so every counterexample found
    by fuzzing reduces to a minimal witness.

    Because {!eval} gives the description its own independent semantics,
    [Mig.eval (to_mig d) = eval d] is itself a differential test of the
    MIG construction axioms. *)

module Mig = Plim_mig.Mig
module Splitmix = Plim_util.Splitmix

type ref_ = {
  idx : int;   (** 0 = constant false; [1..inputs] = PI; above = majority node *)
  neg : bool;  (** complemented edge *)
}

type node = { a : ref_; b : ref_; c : ref_ }

type desc = {
  inputs : int;        (** number of primary inputs, at least 1 *)
  nodes : node array;  (** node [k]'s children satisfy [idx <= inputs + k] *)
  outs : ref_ array;   (** at least one output *)
}

val well_formed : desc -> bool
(** All index invariants above hold. *)

val to_mig : desc -> Mig.t
(** Lower to a hash-consed MIG (inputs [x0..], outputs [y0..]).  Ω.M may
    merge or simplify nodes; the function computed is unchanged. *)

val eval : desc -> bool array -> bool array
(** Direct evaluation of the description, independent of [Mig]. *)

val generate :
  ?max_inputs:int ->
  ?max_nodes:int ->
  ?max_outputs:int ->
  Splitmix.t ->
  desc
(** Draw a random well-formed description: sized DAG with a per-description
    complemented-edge density, locality-biased children (deep structure),
    occasional constant children, multi-output.  Defaults: 6/32/4. *)

val shrink : desc -> (desc -> unit) -> unit
(** Yield structurally smaller well-formed candidates, largest cuts first
    (drop half the nodes, drop one node rerouting its uses to a child,
    drop outputs, reroute children to the constant, clear complement
    flags, drop the highest unused input).  Every candidate strictly
    decreases a well-founded measure, so greedy shrinking terminates.
    Compatible with [QCheck.Shrink.t]. *)

val print : desc -> string
(** Human-readable form: a summary line plus the {!Plim_mig.Mig_io} text
    of the lowered graph (directly replayable with [plimc fuzz --replay]). *)

val arbitrary :
  ?max_inputs:int -> ?max_nodes:int -> ?max_outputs:int -> unit ->
  desc QCheck.arbitrary
(** QCheck arbitrary combining {!generate}, {!shrink} and {!print} — the
    property-test entry point used across [test/]. *)
