(** Binary min-heap with lazy deletion, specialised for scheduling problems
    where an element's key changes over time.

    Elements are integers (node or cell identifiers).  Each element carries a
    version stamp; re-inserting an element bumps its stamp and logically
    invalidates every older heap entry for it.  Stale entries are discarded
    when they surface at the top, giving O(log n) amortised updates without
    a decrease-key operation.

    Slots are stored in parallel int arrays, so an insert allocates
    nothing once the arrays have grown. *)

type t

val create : capacity:int -> t
(** [capacity] sizes the stamp table for element ids below it; inserting
    a larger id grows the table. *)

val insert : t -> int -> int -> int -> int -> unit
(** [insert t k1 k2 k3 x] (re-)inserts element [x] with the lexicographic
    priority [(k1, k2, k3)] (smaller = higher priority), invalidating any
    previous entry for [x].  The heap's order among equal priorities is
    unspecified, so callers that need a total order make [k3] unique.
    @raise Invalid_argument if [x] is negative. *)

val pop_min : t -> int option
(** Removes and returns the live element with the smallest priority,
    skipping stale entries. *)

val live_count : t -> int
