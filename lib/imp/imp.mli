(** Material-implication (IMPLY) logic-in-memory — the baseline style the
    paper argues against in Section II.

    Stateful IMP logic (Borghetti et al., Nature 2010; Lehtonen & Laiho)
    computes with two operations on resistive switches:

    - [False z]: unconditionally reset cell [z] to 0;
    - [Imply (p, q)]: [q <- p -> q = !p \/ q] — [p] is read, [q] is
      conditionally written (the {e work device}).

    A NAND takes two switches and three steps: [False s; Imply (a, s);
    Imply (b, s)] leaves [s = !(a & b)].  Because only the work device is
    ever rewritten, IMP concentrates the write traffic: "this unbalanced
    distribution of writes happens due to the lack of commutativity"
    (Section II).  The compiler here lowers a MIG to a NAND network and
    schedules IMP sequences, reusing the same device allocator as the RM3
    compiler so the two styles can be compared head-to-head (see the
    [section2] bench). *)

module Mig = Plim_mig.Mig
module Crossbar = Plim_rram.Crossbar
module Alloc = Plim_core.Alloc

type instr =
  | False of int            (** z <- 0 *)
  | Imply of int * int      (** (p, q): q <- !p \/ q *)

type program = {
  instrs : instr array;
  num_cells : int;
  pi_cells : (string * int) array;
  po_cells : (string * int) array;   (** outputs, true phase *)
}

val length : program -> int
val num_cells : program -> int

val static_write_counts : program -> int array
(** Every [False] and every [Imply] writes its destination once. *)

val compile : ?strategy:Alloc.strategy -> Mig.t -> program
(** Lower the MIG to AND-inverter form and synthesise IMP sequences.
    [strategy] controls work-device reuse (default [Lifo], the
    conventional two-work-device-style flow; [Min_write] applies the
    paper's minimum write count strategy to IMP for comparison). *)

val run : program -> inputs:(string * bool) list -> (string * bool) list * Crossbar.t
(** Execute on the behavioural crossbar ([Imply] maps to the intrinsic
    [RM3(1, p, z)], of which it is the special case). *)

val check_random : Mig.t -> program -> (unit, string) result
