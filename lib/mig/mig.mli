(** Majority-Inverter Graphs (MIG, Amarù et al., DAC'14).

    A MIG is a DAG of 3-input majority nodes with optionally complemented
    edges.  It is the input representation of the PLiM compiler: every
    majority node maps to (at least) one RM3 instruction.

    Nodes are identified by dense integer ids; node 0 is the Boolean
    constant and ids are topologically ordered (children always precede
    parents).  The graph is hash-consed: structurally identical majority
    nodes are shared, and the trivial majority axiom Ω.M is applied on
    construction ([maj] never builds <x,x,y> or <x,!x,y>).

    The structural hash is an open-addressed table of node ids keyed on
    each node's own sorted children; it is not observable: a graph built
    by the same calls gets the same ids whatever the table's size.  [maj],
    [lookup] (up to its [Some]), [is_maj] and [child] allocate nothing. *)

type t

type signal
(** A node reference with a polarity (complemented-edge) flag. *)

type node_kind =
  | Const                              (** node 0; plain signal = false *)
  | Input of int                       (** primary input, by PI index *)
  | Maj of signal * signal * signal    (** majority over three children *)

(** {1 Signals} *)

val signal : int -> bool -> signal
(** [signal node complemented]. *)

val node_of : signal -> int
val is_complemented : signal -> bool
val not_ : signal -> signal
val ( ~: ) : signal -> signal
(** Alias for [not_]. *)

val signal_equal : signal -> signal -> bool
val false_ : signal
val true_ : signal
val is_const : signal -> bool
val compare_signal : signal -> signal -> int
val pp_signal : Format.formatter -> signal -> unit

(** {1 Construction} *)

val create : unit -> t

val add_input : t -> string -> signal
(** Declares a fresh primary input.
    @raise Invalid_argument if the name is already an input. *)

val maj : t -> signal -> signal -> signal -> signal
(** Hash-consed majority with Ω.M simplification. *)

val lookup : ?below:int -> t -> signal -> signal -> signal -> signal option
(** Like [maj] but never inserts: returns the signal [maj] would return if
    it requires no fresh node (an Ω.M reduction or an existing strashed
    node), else [None].  Used by rewriting heuristics to test whether a
    transformation is free.  With [~below:id] a strashed node at an id
    [>= id] counts as a miss: the answer is the one the graph's prefix of
    nodes below [id] would give. *)

val and_ : t -> signal -> signal -> signal
val or_ : t -> signal -> signal -> signal
val xor : t -> signal -> signal -> signal
val mux : t -> signal -> signal -> signal -> signal
(** [mux t s a b] is [if s then a else b] (3 majority nodes). *)

val add_output : t -> string -> signal -> unit

(** {1 Inspection} *)

val num_nodes : t -> int
(** All allocated nodes including the constant, inputs and dead nodes. *)

val num_inputs : t -> int
val num_outputs : t -> int
val kind : t -> int -> node_kind

val is_maj : t -> int -> bool
(** [is_maj t id]: node [id] is a majority node.  Unlike [kind] it
    allocates nothing. *)

val child : t -> int -> int -> signal
(** [child t id i] is child [i] (0, 1 or 2) of majority node [id], as in
    [Maj] of [kind t id] and in the same order: the children sorted by
    signal.  It allocates nothing, so rewriting decisions use it.
    @raise Invalid_argument if [id] is not a majority node or [i] is not
    0, 1 or 2. *)

val input_name : t -> int -> string
val input_signal : t -> int -> signal
val output : t -> int -> string * signal
(** [output t i] is [(outputs t).(i)] without copying the output table. *)

val outputs : t -> (string * signal) array
val input_names : t -> string array

val size : t -> int
(** Number of majority nodes reachable from the outputs (the paper's node
    count metric). *)

val num_complemented_edges : t -> int
(** Complemented child edges of reachable majority nodes (PO polarities are
    not counted). *)

val depth : t -> int
(** Maximum level over outputs. *)

val levels : t -> int array
(** [levels t].(id) = 0 for constants/inputs, 1 + max child level for
    majority nodes (over all allocated nodes). *)

val fanout_counts : ?reachable:bool array -> t -> int array
(** Per node: number of majority-node parent edges referencing it (over
    reachable nodes), not counting output references.  [reachable], when
    given, must be [reachable t]; it saves recomputing the mark. *)

val output_refs : t -> int array
(** Per node: number of primary outputs referencing it. *)

val fanouts : t -> int array array
(** Per node: ids of reachable majority parents (with duplicates collapsed). *)

val reachable : t -> bool array
(** Per node: reachable from some output. *)

val iter_reachable_maj : t -> (int -> unit) -> unit
(** Topological (children-first) iteration over reachable majority nodes. *)

val is_compact : ?reachable:bool array -> t -> bool
(** The inputs occupy ids [1..num_inputs] in PI order and every majority
    node is reachable.  [map_rebuild] and [cleanup] always return compact
    graphs, and [map_rebuild] with plain [maj] as its rule reproduces a
    compact graph node for node, with the same ids.  [reachable] as for
    {!fanout_counts}. *)

(** {1 Evaluation} *)

val eval : t -> bool array -> bool array
(** [eval t pi_values] returns output values, in output declaration order. *)

val node_values : t -> bool array -> bool array
(** Per-node values under the given input assignment. *)

val output_tables : t -> Plim_logic.Truth_table.t array
(** Exhaustive truth tables of all outputs;
    @raise Invalid_argument when [num_inputs] exceeds
    {!Plim_logic.Truth_table.max_vars}. *)

(** {1 Copying} *)

val cleanup : t -> t
(** Rebuilds the graph keeping only nodes reachable from outputs. *)

val copy : t -> t

val map_rebuild :
  ?reachable:bool array ->
  t -> rule:(t -> old_id:int -> signal -> signal -> signal -> signal) -> t
(** [map_rebuild t ~rule] rebuilds [t] bottom-up into a fresh graph.  For
    every reachable majority node its (already remapped) children are
    passed to [rule] together with the node's id in the old graph (so that
    rewriting heuristics can consult old-graph fanout information); [rule]
    must return the replacement signal in the new graph (typically via
    [maj] plus algebraic rewriting).  Inputs and output names/polarities
    are preserved.  [reachable] as for {!fanout_counts}.  The new graph's
    node vectors and strash are sized for [num_nodes t], and its inputs
    are copied without [add_input]'s duplicate check (the source's names
    are unique), so a copy is linear in the graph's size. *)
