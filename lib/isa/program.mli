(** A compiled PLiM program: the instruction stream plus the memory map
    binding primary inputs and outputs to cells.

    [num_cells] is the paper's #R metric (number of RRAM devices used);
    [length] is #I (number of RM3 instructions).

    Sharing: a program is only ever read once made.  [code] is a mutable
    array that the record exposes for reading, and no consumer writes it:
    [Server]'s compile cache hands one program to every request for it,
    and a batch's shard jobs run on a domain pool, as do the cells of a
    horizon grid, so a write would change what other runs execute, on
    other domains too.  Every function below only reads its program. *)

type t = private {
  code : int array;  (** one packed RM3 per instruction, in program order *)
  num_cells : int;
  pi_cells : (string * int) array;  (** input name -> cell holding it *)
  po_cells : (string * int) array;  (** output name -> cell holding it (true phase) *)
}

(** {2 The packed stream}

    Like the PLiM array itself (DATE'16 §III-A2), a program stores each
    RM3 as one fixed-width word.  Word [w] holds three [field_bits]-wide
    fields: the destination cell [w land field_mask], operand a
    [(w lsr field_bits) land field_mask] and operand b
    [w lsr (2 * field_bits)].  An operand code is 0 for [Const false],
    1 for [Const true] and [c + 2] for cell [c].  Executors and analyses
    that loop over a stream decode the words in place; everything else
    takes {!instr}. *)

val field_bits : int
(** 21. *)

val field_mask : int
(** [2{^field_bits} - 1]. *)

val max_cells : int
(** [2{^21} - 2]: the most cells a program may have, so that cell + 2
    still fits an operand field. *)

val make :
  instrs:Instruction.t array ->
  num_cells:int ->
  pi_cells:(string * int) array ->
  po_cells:(string * int) array ->
  t
(** Validates, before packing, that [num_cells] is in [0, max_cells],
    that every referenced cell is within [0, num_cells) and that input
    names and output names are each duplicate-free.  Cells may be
    shared between inputs (the compiler reuses the device of an unused
    input) and between outputs (two outputs referencing one MIG node).
    @raise Invalid_argument otherwise. *)

val of_code :
  code:int array ->
  num_cells:int ->
  pi_cells:(string * int) array ->
  po_cells:(string * int) array ->
  t
(** {!make} over words already packed; the program takes [code] over,
    so the caller must not write to it afterwards.  Checks the same
    ranges and names.
    @raise Invalid_argument otherwise. *)

val instr : t -> int -> Instruction.t
(** [instr p i] decodes instruction [i] (allocates).
    @raise Invalid_argument if [i] is outside [0, length p). *)

val length : t -> int
(** #I: number of RM3 instructions. *)

val num_cells : t -> int
(** #R: number of RRAM devices. *)

val static_write_counts : t -> int array
(** Per-cell write counts of one execution, derived statically: each
    instruction writes its destination exactly once.  This is the array the
    paper's min/max/STDEV columns summarise. *)

(** {2 Executor interface}

    How a program meets an array: every executor checks its input vector
    and reads outputs back through these, and keeps only its array,
    schedule and verify policy.  They take the name/cell maps, so the
    IMP baseline's programs share them.  Executors of the packed stream
    decode operand codes in their own loop. *)

val check_inputs : caller:string -> (string * int) array -> bool array -> unit
(** Executors take a primary-input vector by position: value [i] is
    loaded into the cell of [pi_cells.(i)], the order of
    [Mig.input_names] for a compiled program.
    @raise Invalid_argument ["<caller>: N input values for M inputs"]
    when the vector's length is not the number of inputs. *)

val read_outputs : (string * int) array -> (int -> bool) -> (string * bool) list
(** Each output's cell through [read], in [po_cells] order. *)
