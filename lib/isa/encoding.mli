(** Binary encoding of RM3 instructions.

    The PLiM controller "reads the instructions from the memory array"
    (Section III-A2): the program itself occupies RRAM, one bit per cell.
    This module fixes a concrete layout so the real memory footprint of a
    compiled program can be reported:

    - an operand is a tag bit (0 = constant, 1 = cell) followed by
      [address_bits] payload bits (a constant's value sits in payload
      bit 0);
    - an instruction is [A operand][B operand][Z address];
    - addresses are LSB-first, [address_bits] = bits needed for
      [num_cells] distinct cells. *)

val address_bits : num_cells:int -> int
(** At least 1. *)

val instruction_bits : num_cells:int -> int

val encode : num_cells:int -> Instruction.t -> bool array
(** @raise Invalid_argument if a referenced cell is out of range. *)

val decode : num_cells:int -> bool array -> Instruction.t
(** Inverse of {!encode}.
    @raise Invalid_argument on wrong length or an out-of-range address. *)

val encode_program : Program.t -> bool array
(** All instructions concatenated. *)

type footprint = {
  data_cells : int;          (** the paper's #R: working devices *)
  instruction_cells : int;   (** cells storing the encoded program *)
  total_cells : int;
  instruction_overhead : float;  (** instruction / data ratio *)
}

val footprint : Program.t -> footprint

val pp_footprint : Format.formatter -> footprint -> unit
