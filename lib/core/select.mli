(** Node-selection (scheduling) policies of the PLiM compiler.

    At every step the compiler picks the next majority node to compute
    among the {e candidates} (nodes whose children are all available):

    - [In_order]: original topological order — the naive compiler;
    - [Release_first] (DAC'16 [21]): most releasing RRAMs first, ties by
      smaller fanout level index — minimises live devices;
    - [Level_first] (the paper's Algorithm 3): smallest fanout level index
      first (shortest storage duration), ties by most releasing RRAMs —
      keeps devices from staying blocked, balancing the write traffic.

    A node's {e releasing count} is the number of its children whose value
    dies when the node is computed (pending use count 1); its {e fanout
    level index} is the level of its farthest fanout target (nodes feeding
    primary outputs count as level [depth + 1] — they stay blocked until
    the end of the program). *)

module Mig = Plim_mig.Mig

type policy = In_order | Release_first | Level_first

val policy_name : policy -> string

type t

val create : policy:policy -> Mig.t -> pending:int array -> t
(** [pending] is shared with the caller (the translator decrements it);
    it must initially hold fanout count + output refs per node, so a
    majority node is reachable exactly when its count is positive. *)

val pop : t -> int option
(** Highest-priority candidate, or [None] when all nodes are computed. *)

val computed : t -> int -> unit
(** Notify that a node was computed (after the translator updated
    [pending]); unlocks its parents as candidates. *)

val child_pending_dropped_to_one : t -> int -> unit
(** Notify that [pending] of a node reached 1: its single remaining
    consumer (if a candidate) gains a releasing RRAM and is re-keyed. *)
