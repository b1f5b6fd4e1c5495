(** Word-level circuit construction over MIGs.

    A word is an array of signals, least-significant bit first.  These
    builders generate the arithmetic benchmark circuits of the evaluation
    (Section IV) structurally — ripple-carry/array arithmetic, exactly the
    circuit families behind the EPFL arithmetic benchmarks. *)

module Mig = Plim_mig.Mig

type word = Mig.signal array

val width : word -> int

val constant : Mig.t -> width:int -> int -> word
(** [constant g ~width v] encodes the low [width] bits of [v]. *)

val input : Mig.t -> string -> int -> word
(** [input g name w] declares inputs [name_0 .. name_{w-1}] (LSB first). *)

val output : Mig.t -> string -> word -> unit
(** Declares outputs [name_0 .. name_{w-1}]. *)

val zero_extend : word -> int -> word
val slice : word -> lo:int -> len:int -> word

val mux_word : Mig.t -> Mig.signal -> word -> word -> word
(** [mux_word g s a b] is [a] when [s] else [b] (widths must match). *)

val add : Mig.t -> ?cin:Mig.signal -> word -> word -> word * Mig.signal
(** Ripple-carry sum of equal-width words; returns (sum, carry-out). *)

val sub : Mig.t -> word -> word -> word * Mig.signal
(** [a - b] two's-complement; the flag is [1] iff no borrow (a >= b). *)

val less_than : Mig.t -> word -> word -> Mig.signal
(** Unsigned [a < b]. *)

val barrel_shift_right : Mig.t -> word -> amount:word -> word
(** Logical right shift by a variable amount (one mux stage per amount
    bit). *)

val barrel_shift_left : Mig.t -> word -> amount:word -> word

val mul : Mig.t -> word -> word -> word
(** Schoolbook array multiplier; result has width [wa + wb]. *)

val square : Mig.t -> word -> word

val divmod : Mig.t -> word -> word -> word * word
(** Restoring array divider: [(quotient, remainder)], both of the
    dividend's width.  With a zero divisor the quotient is all-ones and
    the remainder is the dividend (the conventional restoring-array
    outcome). *)

val isqrt : Mig.t -> word -> word
(** Digit-recurrence square root: input of width [2k] gives a [k]-bit
    root (floor of the exact square root). *)

val popcount : Mig.t -> word -> word
(** Adder-tree population count; result width [ceil(log2 (w+1))]. *)

val priority_encode : Mig.t -> word -> word * Mig.signal
(** [(index, valid)]: index of the highest set bit (LSB-first word), and
    whether any bit is set.  Index width is [ceil(log2 w)]. *)

val decode : Mig.t -> word -> word
(** [decode g sel] is the one-hot word of width [2^(width sel)]. *)
