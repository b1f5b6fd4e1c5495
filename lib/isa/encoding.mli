(** Memory footprint of a binary-encoded RM3 program.

    The PLiM controller "reads the instructions from the memory array"
    (Section III-A2): the program itself occupies RRAM, one bit per cell.
    This module fixes a concrete layout so the real memory footprint of a
    compiled program can be reported:

    - an address is [w] bits, the bits needed for [num_cells] distinct
      cells (at least 1);
    - an operand is a tag bit (0 = constant, 1 = cell) followed by [w]
      payload bits (a constant's value sits in payload bit 0);
    - an instruction is [A operand][B operand][Z address], so it takes
      [3w + 2] cells. *)

type footprint = {
  data_cells : int;          (** the paper's #R: working devices *)
  instruction_cells : int;   (** cells storing the encoded program *)
  total_cells : int;
  instruction_overhead : float;  (** instruction / data ratio *)
}

val footprint : Program.t -> footprint

val pp_footprint : Format.formatter -> footprint -> unit
