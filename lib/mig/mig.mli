(** Majority-Inverter Graphs (MIG, Amarù et al., DAC'14).

    A MIG is a DAG of 3-input majority nodes with optionally complemented
    edges.  It is the input representation of the PLiM compiler: every
    majority node maps to (at least) one RM3 instruction.

    Nodes are identified by dense integer ids; node 0 is the Boolean
    constant and ids are topologically ordered (children always precede
    parents).  The graph is hash-consed: structurally identical majority
    nodes are shared, and the trivial majority axiom Ω.M is applied on
    construction ([maj] never builds <x,x,y> or <x,!x,y>).

    Representation: one plain array per node field (a tag and three
    children; an input keeps its PI index in the first), indexed by node
    id and grown by doubling, plus a structural hash: an open-addressed
    table of node ids keyed on each node's own sorted children.  Neither
    the arrays' sizes nor the table is observable: a graph built by the
    same calls gets the same ids whatever their sizes.  Dune's default
    profile compiles with [-opaque], so nothing of this module is inlined
    elsewhere: a hot loop outside it pays one call per accessor.  So the
    node-field arrays are readable fields of the [private] record {!t},
    and a {!signal} is a [private int]: rewriting decisions read a node's
    tag and children, and a signal's node, polarity and equality, with no
    call.

    Allocation: [maj] (hit, miss or Ω.M reduction), a [lookup] miss,
    [is_maj], [child] and a read of {!t}'s fields allocate nothing,
    except when [maj] outgrows the arrays or the table ([create_sized]
    sizes both up front); a [lookup] hit allocates its [Some].  [kind]
    allocates its [Maj] or [Input].  [kind], [is_maj] and [child] raise
    [Invalid_argument] on an id outside [0, num_nodes). *)

type signal = private int
(** A node reference with a polarity (complemented-edge) flag, packed as
    [2 * node + (1 if complemented)].  Read it by coercion, [(s :> int)],
    where a call to {!node_of} or {!is_complemented}
    would cost too much; build one only through this module. *)

type node_tag = Tag_const | Tag_input | Tag_maj

type strash
type io
(** The structural hash and the input/output tables: read only through
    the functions below. *)

type t = private {
  mutable tag : node_tag array;
  mutable c0 : signal array;
  mutable c1 : signal array;
  mutable c2 : signal array;
  mutable len : int;
  strash : strash;
  io : io;
}
(** A graph.  Node [id]'s tag is [tag.(id)]; a majority node's children
    are [c0.(id)], [c1.(id)] and [c2.(id)], as {!child} returns them.  The
    arrays have spare slots past [len] (= {!num_nodes}), and a graph that
    grows replaces them, so read them through the record each time rather
    than keep one.  A field read skips {!is_maj}'s and {!child}'s checks,
    but not OCaml's array bounds check: the reader makes sure [id] is
    below [len] (and is a majority node, for a child).  Code outside a hot
    loop calls the checked functions below. *)

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

val false_ : signal
val true_ : signal
val is_const : signal -> bool

(** {1 Construction} *)

val create : unit -> t

val create_sized : ?nodes:int -> unit -> t
(** An empty graph whose node arrays and strash are sized for [nodes]
    nodes, so building up to that many never regrows them.  The hint only
    sizes storage: a graph that outgrows it doubles its arrays, and gets
    the same ids as the same calls on [create ()]. *)

val create_twin : nodes:int -> t -> t
(** [create_twin ~nodes g] is an empty graph whose node arrays are sized
    as by [create_sized ~nodes ()] and whose structural hash is [g]'s own,
    not a fresh one: for a caller that alternates {!rebuild_into} between
    two targets and needs only one hash.  The hash answers for whichever
    of the twins was built into last, by [maj] or as the [into] of
    [rebuild_into], which empties it first.  On the other twin, [maj],
    [lookup] and the gates built on [maj] must not be called until a
    [rebuild_into] builds into it again.  Every other function reads only
    node fields and input/output tables, and stays valid on both twins:
    in particular either may be the source of a [rebuild_into] into the
    other, or of a [cleanup]. *)

val add_input : t -> string -> signal
(** Declares a fresh primary input.  The duplicate check looks the name
    up in a table of the graph's input names, so declaring [k] inputs
    takes time linear in [k].
    @raise Invalid_argument if the name is already an input. *)

val maj : t -> signal -> signal -> signal -> signal
(** Hash-consed majority with Ω.M simplification. *)

val lookup : below:int -> t -> signal -> signal -> signal -> signal option
(** Like [maj] but never inserts: returns the signal [maj] would return if
    it requires no fresh node (an Ω.M reduction or an existing strashed
    node), else [None].  Used by rewriting heuristics to test whether a
    transformation is free.  A strashed node at an id [>= below] counts
    as a miss: the answer is the one the graph's prefix of nodes below
    [below] would give.  [~below:max_int] asks the whole graph. *)

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
(** @raise Invalid_argument if the id is not in [0, num_nodes t). *)

val is_maj : t -> int -> bool
(** [is_maj t id]: node [id] is a majority node.  Unlike [kind] it
    allocates nothing.
    @raise Invalid_argument if the id is not in [0, num_nodes t). *)

val child : t -> int -> int -> signal
(** [child t id i] is child [i] (0, 1 or 2) of majority node [id], as in
    [Maj] of [kind t id] and in the same order: the children sorted by
    signal.  It allocates nothing; a hot loop that has checked [id]
    itself reads [c0]..[c2] of {!t} instead.
    @raise Invalid_argument if [id] is out of range or not a majority
    node, or [i] is not 0, 1 or 2. *)

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

val fanout_counts : t -> int array
(** Per node: number of majority-node parent edges referencing it (over
    reachable nodes), not counting output references. *)

val output_refs : t -> int array
(** Per node: number of primary outputs referencing it. *)

val sweep_into : t -> reachable:bool array -> refs:int array -> bool
(** One walk that fills the first [num_nodes t] slots of [reachable] with
    {!reachable}[ t] and of [refs] with {!fanout_counts} plus
    {!output_refs}, and returns {!is_compact}[ t].  The arrays may be
    longer than [num_nodes t]; slots past it are left as they were.
    @raise Invalid_argument if either is shorter. *)

val fanouts : t -> int array array
(** Per node: ids of reachable majority parents (with duplicates collapsed). *)

val reachable : t -> bool array
(** Per node: reachable from some output. *)

val iter_reachable_maj : t -> (int -> unit) -> unit
(** Topological (children-first) iteration over reachable majority nodes. *)

val is_compact : t -> bool
(** The inputs occupy ids [1..num_inputs] in PI order and every majority
    node is reachable.  [cleanup] always returns a compact graph, and
    [map_rebuild] with plain [maj] as its rule reproduces a compact graph
    node for node, with the same ids; other rules may leave dead nodes. *)

(** {1 Evaluation} *)

val eval : t -> bool array -> bool array
(** [eval t pi_values] returns output values, in output declaration order. *)

val output_tables : t -> Plim_logic.Truth_table.t array
(** Exhaustive truth tables of all outputs;
    @raise Invalid_argument when [num_inputs] exceeds
    {!Plim_logic.Truth_table.max_vars}. *)

(** {1 Copying} *)

val cleanup : ?reachable:bool array -> ?map:signal array -> t -> t
(** Rebuilds the graph keeping only nodes reachable from outputs, into a
    fresh graph whose storage is sized for exactly those nodes.
    [reachable], when given, must be {!reachable}[ t] (it saves
    recomputing the mark), and [map] serves as {!rebuild_into}'s map
    instead of a fresh one.  Either may be longer than [num_nodes t]. *)

val map_rebuild : t -> rule:(t -> old_id:int -> signal -> signal -> signal -> signal) -> t
(** [map_rebuild t ~rule] rebuilds [t] bottom-up into a fresh graph.  For
    every reachable majority node its (already remapped) children are
    passed to [rule] together with the node's id in the old graph (so that
    rewriting heuristics can consult old-graph fanout information); [rule]
    must return the replacement signal in the new graph (typically via
    [maj] plus algebraic rewriting).  Inputs and output names/polarities
    are preserved.  The new graph's
    node arrays and strash are sized for [num_nodes t], and its inputs
    are copied without [add_input]'s duplicate check (the source's names
    are unique), so a copy is linear in the graph's size.  It is
    [rebuild_into] with a fresh target and map. *)

val rebuild_into :
  ?reachable:bool array ->
  map:signal array ->
  t -> into:t -> rule:(t -> old_id:int -> signal -> signal -> signal -> signal) -> unit
(** [rebuild_into t ~map ~into ~rule] is [map_rebuild t ~rule] built in
    [into] instead of a fresh graph, for a caller that rebuilds many times
    and keeps its own targets.  [into]'s previous contents are discarded
    first: its node arrays and strash are kept when large enough for
    [num_nodes t] and replaced otherwise, and either way the rebuild gets
    the ids [map_rebuild] would give.  [map] receives each rebuilt node's
    image: after the call, [map.(id)] is the signal in [into] of every
    input and reachable majority node [id] of [t].  [reachable] as for
    {!cleanup}.  [t] is only read.
    @raise Invalid_argument if [into == t] or [map] is shorter than
    [num_nodes t]. *)
