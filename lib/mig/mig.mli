(** Majority-Inverter Graphs (MIG, Amarù et al., DAC'14).

    A MIG is a DAG of 3-input majority nodes with optionally complemented
    edges.  It is the input representation of the PLiM compiler: every
    majority node maps to (at least) one RM3 instruction.

    Nodes are identified by dense integer ids; node 0 is the Boolean
    constant and ids are topologically ordered (children always precede
    parents).  The graph is hash-consed: structurally identical majority
    nodes are shared, and the trivial majority axiom Ω.M is applied on
    construction ([maj] never builds <x,x,y> or <x,!x,y>).

    Representation: one 12-byte record per node in a [Bytes.t], which the
    GC does not scan, grown by doubling: three unsigned 32-bit words, a
    majority node's sorted children (an input keeps its PI index in the
    first and zeros in the others).  No tag is stored: a majority node's
    children are distinct after Ω.M, so its second and third words
    differ, and they are equal (zero) for the constant and the inputs.
    Beside it, only while nodes are being built, a structural hash (the
    strash): an open-addressed table of node ids, 4 bytes a slot, keyed
    on each node's own sorted children.  A graph gets its table at its
    first [maj] that needs one, which indexes the nodes it already holds;
    the producers of finished graphs ({!cleanup}, and the readers,
    generators and front end built on [maj]) return them without one, as
    the table is about as large as the node store and a finished graph
    is only read.  Neither the store's size nor the table, nor whether
    the graph has one, is observable: a graph built by the same calls gets
    the same ids whatever their sizes.  The slot width bounds a
    graph at [2^31 - 1] nodes (ids up to [2^31 - 2], signals up to
    [2^32 - 3]): {!create_sized} or {!create_twin} with a larger hint,
    and [maj] or [add_input] on a graph that holds that many, raise
    [Invalid_argument].  Dune's default
    profile compiles with [-opaque], so nothing of this module is inlined
    elsewhere: a hot loop outside it pays one call per accessor.  So the
    node store is a readable field of the [private] record {!t}, a
    {!signal} is a [private int] and {!signal_of_word} a primitive:
    rewriting decisions read a node's children, and a signal's node,
    polarity and equality, with no call.

    Allocation: [maj] (hit, miss or Ω.M reduction), a [lookup] miss,
    [is_maj], [child] and a read of {!t}'s fields allocate nothing,
    except when [maj] builds the table or outgrows the store or the
    table ([create_sized] sizes both up front); a [lookup] hit allocates
    its [Some].  [kind] allocates its [Maj] or [Input].  [kind], [is_maj]
    and [child] raise [Invalid_argument] on an id outside
    [0, num_nodes).

    Sharing: a graph is written only by [maj] (and the gates built on
    it), [add_input], [add_output], {!drop_strash}, and {!rebuild_into}
    into it; {!create_twin} and {!index} graphs also share a table.  Every
    other function, {!cleanup} and {!index} included, only reads its
    argument.  A graph shared between domains must only be read: so the
    finished graphs above, which have no table to build, can be compiled
    from several domains at once. *)

type signal = private int
(** A node reference with a polarity (complemented-edge) flag, packed as
    [2 * node + (1 if complemented)].  Read it by coercion, [(s :> int)],
    where a call to {!node_of} or {!is_complemented}
    would cost too much; build one only through this module. *)

type strash
type io
(** The structural hash and the input/output tables: read only through
    the functions below. *)

type t = private {
  mutable nodes : Bytes.t;
  mutable len : int;
  strash : strash;
  io : io;
  view : bool;
}
(** A graph.  Node [id]'s record is the 12 bytes of [nodes] from
    [12 * id]: child [i] of a majority node, as {!child} returns it, is
    the native-endian 32-bit word at [12 * id + 4 * i], read unsigned
    ([%caml_bytes_get32], then [land 0xFFFF_FFFF]); node [id] is a
    majority node iff its words at [+ 4] and [+ 8] differ.  The store has
    spare records past [len] (= {!num_nodes}), and a graph that grows
    replaces it, so read it through the record each time rather than keep
    it.  A word read skips {!is_maj}'s and {!child}'s checks, but not
    OCaml's bounds check: the reader makes sure [id] is below [len] (and
    is a majority node, for a child).  Code outside a hot loop calls the
    checked functions below; nothing writes [nodes] but this module.
    [view] is true on the read-only graphs {!index} returns. *)

external signal_of_word : int -> signal = "%identity"
(** A child word read from {!t}'s [nodes], as a signal, with no call and
    no check.  Only for words read there: any other int may not be a
    signal of the graph. *)

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
(** An empty graph whose node store is sized for [nodes] nodes, and with
    it the strash its first [maj] builds, so building up to that many
    never regrows either.  The hint only sizes storage: a graph that
    outgrows it doubles its store, and gets the same ids as the same
    calls on [create ()].
    @raise Invalid_argument if [nodes] exceeds the limit of [2^31 - 1]. *)

val create_twin : nodes:int -> t -> t
(** [create_twin ~nodes g] is an empty graph whose node store is sized
    as by [create_sized ~nodes ()] and whose structural hash is [g]'s own,
    not a fresh one: for a caller that alternates {!rebuild_into} between
    two targets and needs only one hash.  The hash answers for whichever
    of the twins was built into last, by [maj] or as the [into] of
    [rebuild_into], which empties it first, or was made by {!index}.  On
    the other twins, [maj], [lookup] and the gates built on [maj] must not
    be called until a [rebuild_into] builds into them again.  Every other
    function reads only node fields and input/output tables, and stays
    valid on all twins: in particular any may be the source of a
    [rebuild_into] into another, or of a [cleanup].
    @raise Invalid_argument if [nodes] exceeds the limit of [2^31 - 1]. *)

val index : t -> twin:t -> t
(** [index g ~twin] is a read-only view of [g] that {!lookup} can ask:
    a graph that reads [g]'s node store and input/output tables, and
    whose structural hash is [twin]'s (see {!create_twin}), emptied and
    filled with [g]'s majority nodes.  For a caller that owns a table and
    must ask [lookup] of a graph without one, [g] shared or not: [g] is
    only read.  The view answers like [g] with a table of its own until a
    twin is built into.  It is only read too: [maj] on a node it lacks,
    [add_input], [add_output] and [rebuild_into] into it raise
    [Invalid_argument].  It costs one record and the inserts: [twin]'s
    table is kept if large enough for [g]. *)

val drop_strash : t -> unit
(** Frees [t]'s structural hash, in constant time, once [t] is built.
    Nothing observable changes: a later [maj] builds a new one from [t]'s
    nodes and gets the ids the old one gave, and [lookup] raises until
    then.  On a twin it drops the table of every twin. *)

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
    [below] would give.  [~below:max_int] asks the whole graph.  It never
    builds or writes a table, so it reads a shared graph safely; ask it
    of a graph without one through {!index}.
    @raise Invalid_argument if the graph has majority nodes but no
    structural hash, and the answer is not an Ω.M reduction. *)

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
    itself reads the words of {!t}'s [nodes] instead.
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
    {!rebuild_into} with plain [maj] as its rule reproduces a compact
    graph node for node, with the same ids; other rules may leave dead
    nodes. *)

(** {1 Evaluation} *)

val eval : t -> bool array -> bool array
(** [eval t pi_values] returns output values, in output declaration order.
    @raise Invalid_argument if [pi_values] does not hold one value per
    input. *)

val output_tables : t -> Plim_logic.Truth_table.t array
(** Exhaustive truth tables of all outputs;
    @raise Invalid_argument when [num_inputs] exceeds
    {!Plim_logic.Truth_table.max_vars}. *)

(** {1 Copying} *)

val cleanup : ?reachable:bool array -> ?map:signal array -> t -> t
(** Rebuilds the graph keeping only nodes reachable from outputs: the
    graph, ids and all, of a {!rebuild_into} with plain [maj] as its rule,
    into a fresh graph whose node store is sized for exactly those nodes
    and which has no structural hash.  It needs none: the live nodes'
    images are distinct, so it appends each node's record with its
    children re-sorted, and probes no table.  [reachable], when given,
    must be {!reachable}[ t] (it saves recomputing the mark), and [map]
    serves as [rebuild_into]'s map instead of a fresh one.  Either may be
    longer than [num_nodes t]. *)

val rebuild_into :
  ?reachable:bool array ->
  map:signal array ->
  t -> into:t -> rule:(t -> old_id:int -> signal -> signal -> signal -> signal) -> unit
(** [rebuild_into t ~map ~into ~rule] rebuilds [t] bottom-up into [into].
    For every reachable majority node its (already remapped) children are
    passed to [rule] together with the node's id in [t] (so that
    rewriting heuristics can consult old-graph fanout information); [rule]
    must return the replacement signal in [into] (typically via [maj] plus
    algebraic rewriting).  Inputs and output names/polarities are
    preserved; the inputs are copied without [add_input]'s duplicate check
    (the source's names are unique), so a copy is linear in the graph's
    size.

    [into]'s previous contents are discarded first: its node store and
    strash are kept when large enough for [num_nodes t] and replaced
    otherwise.  A caller that knows the rule emits more nodes than [t]
    holds passes an [into] from {!create_sized} sized for them, so the
    rebuild never regrows it.  Either way the ids are the ones a rebuild
    into [create ()] gives.  [map] receives each rebuilt node's image:
    after the call, [map.(id)] is the signal in [into] of every input and
    reachable majority node [id] of [t].  [reachable] as for {!cleanup}.
    [t] is only read.
    @raise Invalid_argument if [into == t], [into] is a view from
    {!index}, or [map] is shorter than [num_nodes t]. *)
