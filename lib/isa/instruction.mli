(** The PLiM instruction set.

    PLiM executes a single instruction, RM3(A, B, Z): operands A and B are
    read from constants or from the memory array, and during the write
    cycle the destination cell is updated to [Z <- <A, !B, Z>].  (DATE'16;
    reproduced in Section III-A2 of the paper.) *)

type operand =
  | Const of bool   (** an applied constant signal *)
  | Cell of int     (** read from a memory cell *)

type t = {
  a : operand;   (** first operand, P *)
  b : operand;   (** second operand, Q (intrinsically inverted) *)
  z : int;       (** destination cell: read-modify-write *)
}

val rm3 : a:operand -> b:operand -> z:int -> t

val set_const : bool -> int -> t
(** [set_const v z] initialises cell [z] to [v] in one instruction:
    [RM3(1,0,z)] forces 1, [RM3(0,1,z)] forces 0. *)

val semantics : a:bool -> b:bool -> z:bool -> bool
(** Pure meaning of one instruction: [<a, !b, z>]. *)

val to_string : t -> string
