(** The MIG Boolean algebra used by the PLiM compilers.

    Each axiom is packaged as a local rewriting [rule] applied while a
    graph is rebuilt bottom-up: the rule sees the (already remapped)
    children of the majority node under reconstruction, plus each child's
    fanout count in the old graph (a death prediction used to avoid
    size-increasing applications), and either declines or fires.

    A rule is split into a decision and a commit.  The decision reads a
    node's tag and children from the fields of the [private] record
    {!Mig.t}, and a signal's node, polarity and equality by coercion of
    the [private int] {!Mig.signal}; it calls into [Mig] only once a node
    has the rule's shape, to ask [Mig.lookup ~below] whether the
    replacement is free (and [Mig.not_] for the signals it asks about).
    A decision that declines allocates nothing; a [lookup] hit allocates
    its [Some].  When the rule fires the decision returns the commit,
    which builds the replacement signal.  So a rule can be asked whether
    it would fire without changing the graph.  The rules over two or
    three operands try the operand pairs in a fixed order, (a, b | c),
    (a, c | b), (b, c | a), and return the commit of the first that
    matches.

    The trivial-majority axiom Ω.M is not a rule here: it is applied
    unconditionally by {!Mig.maj}. *)

module Mig = Plim_mig.Mig

type rule =
  Mig.t -> below:int -> Mig.signal -> int -> Mig.signal -> int -> Mig.signal -> int ->
  (unit -> Mig.signal) option
(** [rule g ~below a fa b fb c fc] is [None] when the rule declines on the
    node [<a b c>], else the commit that builds its replacement in [g].
    Each operand is a remapped child in [g] followed by its child's fanout
    in the old graph, output references included.  Strash lookups see
    only the nodes of [g] below id [below]. *)

val distributivity_rl : rule
(** Ω.D right-to-left: [<<xyu><xyv>z> = <xy<uvz>>].  Applies when the two
    inner nodes will die (old fanout 1) or when the replacement inner node
    is free (Ω.M reduction or already strashed), so it never grows the
    graph. *)

val associativity : rule
(** Ω.A: [<xu<yuz>> = <zu<yux>>], committed only when the swapped inner
    node is free — Ω.A by itself does not reduce size, it reshapes the
    graph to expose sharing and further Ω.M reductions. *)

val complementary_associativity : rule
(** Ψ.C: if the inner node contains the complement of one outer child,
    replace that occurrence by the other outer child
    ([<xu<y!uz>> = <xu<yxz>>] and [<xu<y!xz>> = <xu<yuz>>]).  Removes a
    complemented edge; committed when free or when the inner node dies. *)

val inverter_propagation : rule
(** Ω.I right-to-left, transformations (1)-(3) of DATE'16:
    a node with two or three complemented non-constant children is
    replaced by its all-flipped dual with a complemented output, leaving
    at most one complemented child. *)

val first : rule list -> rule
(** The commit of the first rule that fires, in list order. *)

val apply_first :
  rule list -> Mig.t -> Mig.signal -> int -> Mig.signal -> int -> Mig.signal -> int ->
  Mig.signal
(** Commit the first rule that fires on all of [g]; fall back to [Mig.maj]. *)

val complemented_children : Mig.t -> Mig.signal -> Mig.signal -> Mig.signal -> int
(** Number of complemented non-constant children — the RM3 cost driver. *)
