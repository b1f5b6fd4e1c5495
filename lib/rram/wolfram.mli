(** WoLFRaM-style programmable address remapping (arXiv 2010.02825).

    A seeded pseudo-random permutation maps each logical line to a
    physical line.  Every [period] logical writes the permutation is
    {e re-keyed}: a fresh seed-derived permutation is drawn and every line
    whose physical home changed is copied there (one migration write per
    moved line).  Over many generations each physical line spends equal
    time backing hot and cold logical addresses, so wear spreads uniformly
    even for pathologically skewed write streams — the property Start-Gap
    alone cannot provide when a single line is written in a tight loop.

    The layer composes with the rest of the address stack
    ({!Leveling.stack}): {!Start_gap} rotation applies {e after} this
    permutation (logical → Wolfram → Start-Gap → {!Plim_fault.Remap}
    spare patching), and every layer stays a bijection onto its own range.

    Migration cost: a re-key moves at most [n] lines every [period]
    writes, an amortised overhead of [n / period] extra writes per logical
    write ({!Leveling.overhead}). *)

type t

val create : ?period:int -> seed:int -> int -> t
(** [create ~seed n] maps [n] logical lines onto [n] physical lines,
    re-keying every [period] (default 50_000) logical writes.  The initial
    map is already a seeded permutation, not the identity.
    @raise Invalid_argument if [n <= 0] or [period <= 0]. *)

val physical : t -> int -> int
(** Current physical line of a logical address; a bijection on [0, n).
    @raise Invalid_argument out of range. *)

val write : ?on_migrate:(int -> unit) -> t -> int -> unit
(** Record one logical write; re-keys when the period elapses.  [on_migrate] is
    called with each physical line that receives a migration copy during
    a re-key triggered by this write, letting a wear substrate (e.g. a
    {!Crossbar}) charge the copies.
    @raise Invalid_argument out of range, as {!physical}. *)

val rekeys : t -> int
(** Re-key generations performed so far. *)
