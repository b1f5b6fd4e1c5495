(** WoLFRaM-style spare-line remapping: a programmable logical→physical
    address map with a pool of spare lines.

    [lines] logical addresses are backed by [lines + spares] physical
    lines, initially the identity.  When write-verify (or any other
    detector) finds a faulty physical line, {!retire} reprograms the
    decoder entry of its logical address to the next spare — the faulty
    line is never addressed again and computation continues on the spare.
    When the pool runs dry the array has gracefully degraded to its
    capacity limit and {!retire} reports it.

    The map composes with {!Plim_rram.Start_gap}: rotation permutes
    logical addresses {e before} this table, remapping patches individual
    physical lines {e after} it. *)

type t

val create : ?spares:int -> lines:int -> unit -> t
(** [create ~lines ()] with a pool of [spares] (default 0) spare lines.
    @raise Invalid_argument on negative [lines] or [spares]. *)

val lines : t -> int

val num_physical : t -> int
(** [lines + spares]. *)

val physical : t -> int -> int
(** Current physical line of a logical address. *)

val spares_left : t -> int

val retire : t -> int -> int option
(** [retire t l] retires the physical line currently backing logical
    address [l] and remaps [l] to a fresh spare.  [Some p] is the new
    physical line; [None] means the spare pool is exhausted (the map is
    unchanged). *)
