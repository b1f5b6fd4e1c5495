(** Packed truth tables for Boolean functions of up to [max_vars] variables.

    A table over [n] variables stores [2^n] output bits in an [int64] array.
    Variable 0 is the fastest-toggling input (bit 0 of the minterm index).
    Used to equivalence-check MIG rewriting and to validate the MIG algebra
    axioms themselves. *)

type t

val max_vars : int
(** 16: tables up to 64 Ki-minterms, ample for exhaustive checks. *)

val const_ : int -> bool -> t
(** [const_ n b] is the constant-[b] function of [n] variables. *)

val var : int -> int -> t
(** [var n i] is the projection on variable [i] (0-based) over [n]
    variables.  @raise Invalid_argument if [i >= n] or [n > max_vars]. *)

val not_ : t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val xor : t -> t -> t
val maj : t -> t -> t -> t
(** 3-input majority, the MIG node function. *)

val mux : t -> t -> t -> t
(** [mux s a b] is [if s then a else b]. *)

val equal : t -> t -> bool

val get : t -> int -> bool
(** [get t minterm] is the output for the given input assignment encoded as
    an integer. *)

val eval : t -> bool array -> bool
(** [eval t assignment] with [assignment.(i)] the value of variable [i]. *)

val count_ones : t -> int

val of_fun : int -> (bool array -> bool) -> t
(** [of_fun n f] tabulates [f] exhaustively. *)

val to_hex : t -> string

val pp : Format.formatter -> t -> unit
