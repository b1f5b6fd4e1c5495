(** A compiled PLiM program: the instruction stream plus the memory map
    binding primary inputs and outputs to cells.

    [num_cells] is the paper's #R metric (number of RRAM devices used);
    [length] is #I (number of RM3 instructions). *)

type t = {
  instrs : Instruction.t array;
  num_cells : int;
  pi_cells : (string * int) array;  (** input name -> cell holding it *)
  po_cells : (string * int) array;  (** output name -> cell holding it (true phase) *)
}

val make :
  instrs:Instruction.t array ->
  num_cells:int ->
  pi_cells:(string * int) array ->
  po_cells:(string * int) array ->
  t
(** Validates that every referenced cell is within [0, num_cells) and that
    input names and output names are each duplicate-free.  Cells may be
    shared between inputs (the compiler reuses the device of an unused
    input) and between outputs (two outputs referencing one MIG node).
    @raise Invalid_argument otherwise. *)

val length : t -> int
(** #I: number of RM3 instructions. *)

val num_cells : t -> int
(** #R: number of RRAM devices. *)

val static_write_counts : t -> int array
(** Per-cell write counts of one execution, derived statically: each
    instruction writes its destination exactly once.  This is the array the
    paper's min/max/STDEV columns summarise. *)

val iter : (Instruction.t -> unit) -> t -> unit

(** {2 Executor interface}

    How a program meets an array: every executor binds inputs, reads
    operands and reads outputs back through these, and keeps only its
    array, schedule and verify policy.  They take the name/cell maps, so
    the IMP baseline's programs share them. *)

val bind_inputs :
  caller:string -> (string * int) array -> (string * bool) list -> bool array
(** The value of each input in [pi_cells] order.  The names in
    [pi_cells] must be distinct, as {!make} ensures.  Inputs listed in
    [pi_cells] order, as {!inputs_of_vector} lists them, bind by position
    and allocate only the result; any other order goes through a table.
    @raise Invalid_argument ["<caller>: duplicate input \"x\""], then
    ["<caller>: missing input \"x\""], then
    ["<caller>: unknown extra inputs"]. *)

val inputs_of_vector : (string * int) array -> bool array -> (string * bool) list
(** Named inputs from a vector in [pi_cells] order.
    @raise Invalid_argument if the lengths differ. *)

val read_outputs : (string * int) array -> (int -> bool) -> (string * bool) list
(** Each output's cell through [read], in [po_cells] order. *)

val operand : (int -> bool) -> Instruction.operand -> bool
(** A constant as applied, a cell through [read]; allocates nothing. *)
