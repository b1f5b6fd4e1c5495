(** The 18-benchmark suite of the paper's evaluation (Section IV).

    Arithmetic circuits and the regular control blocks (dec, priority,
    voter) are generated structurally with the paper's PI/PO counts; the
    irregular random-control blocks (cavlc, ctrl, i2c, int2float,
    mem_ctrl, router) are seeded pseudo-random control-style MIGs with the
    paper's PI/PO counts (see DESIGN.md Section 2 for the substitution
    rationale). *)

module Mig = Plim_mig.Mig

type family = Arithmetic | Random_control

type spec = {
  name : string;
  family : family;
  pi : int;            (** paper's primary input count *)
  po : int;            (** paper's primary output count *)
  build : unit -> Mig.t;
}

val all : spec list
(** The 18 benchmarks in the paper's table order (arithmetic first). *)

val find : string -> spec
(** @raise Not_found for unknown names. *)

val build_cached : spec -> Mig.t
(** Memoised [spec.build] (generation can cost seconds for mem_ctrl). *)

val small_suite : spec list
(** Reduced-width instances of every circuit family (arithmetic at 8 bits,
    control at a few hundred nodes) for tests and quick experiments. *)
