(** Start-Gap wear levelling (Qureshi et al., MICRO'09) — the
    architecture-level write-balancing alternative cited by the paper
    ([8]) for PCM/RRAM main memories.

    [n] logical lines are spread over [n + 1] physical lines through two
    registers: [start] and the position of the spare {e gap} line.  Every
    [psi] logical writes the gap moves down by one (one extra physical
    copy write); once it wraps, [start] advances, slowly rotating the
    whole address space.

    Used in the benches to contrast architectural rotation against the
    paper's compiler-level endurance management: rotation balances wear
    {e across many executions} at the cost of [1/psi] write overhead,
    whereas the endurance-aware compiler balances a {e single} program. *)

type t

val create : ?psi:int -> int -> t
(** [create ?psi n] for [n] logical lines; gap moves every [psi] (default
    100) writes. *)

val physical : t -> int -> int
(** Current physical line of a logical address.
    @raise Invalid_argument out of range. *)

val write : ?on_copy:(int -> unit) -> t -> int -> unit
(** Record one write to a logical address (moves the gap when due).
    [on_copy] is called with the physical line that receives the gap-move
    copy, if this write triggers one; a wrap of the gap copies nothing.
    @raise Invalid_argument out of range, as {!physical}. *)
