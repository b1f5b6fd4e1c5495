(** Node translation: lowering one majority node to RM3 instructions.

    For node [n = <s_a, s_b, s_c>] the translator assigns the three
    children to the RM3 roles:

    - [P] (first operand, read as-is),
    - [Q] (second operand, inverted by the hardware),
    - [Z] (the destination cell, overwritten in place).

    The ideal case costs a single instruction: a node with exactly one
    complemented child (feeding [Q]) and a single-fanout plain child whose
    device can be rewritten in place ([Z]).  Every obstruction — a missing
    complement, a multi-fanout or write-capped destination — is repaired
    with two extra instructions and one extra device (a constant load plus
    an RM3 copy/complement), matching the cost model of the paper and of
    the DAC'16 compiler. *)

module Mig = Plim_mig.Mig

type ctx = {
  g : Mig.t;
  alloc : Alloc.t;
  cell_of : int array;     (** node id -> device holding its value; -1 = none *)
  pending : int array;     (** node id -> remaining uses (parents + PO refs) *)
  pi_cell : int array;     (** PI index -> device the input is loaded into *)
  mutable code : int array;
      (** the emitted RM3s, packed as in {!Plim_isa.Program}; the first
          [len] words are used, the rest is growth room *)
  mutable len : int;
  dest_min_write : bool;
      (** ablation: among equally-cheap destination choices prefer the
          device with the smallest write count (not part of the paper) *)
  mutable on_pending_one : int -> unit;
      (** scheduling callback, invoked when a node's pending count drops
          to exactly 1 *)
}

val make_ctx :
  ?dest_min_write:bool -> Mig.t -> Alloc.t -> ctx

val place_inputs : ctx -> unit
(** Allocates devices for all primary inputs (releasing those of unused
    inputs immediately). *)

val compute_node : ctx -> int -> unit
(** Translate one majority node (children must be available).
    Updates pending counts, releases dead devices, invokes
    [on_pending_one].
    @raise Invalid_argument if an instruction would name a cell past
    {!Plim_isa.Program.max_cells}. *)

val materialize_outputs : ctx -> (string * int) array
(** After all nodes are computed: ensure every primary output value sits
    true-phase in a device (complemented or constant outputs cost extra
    instructions) and return the name->cell map. *)
