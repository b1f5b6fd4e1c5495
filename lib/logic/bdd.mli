(** Reduced ordered binary decision diagrams (ROBDDs).

    Complements {!Truth_table} for formal equivalence checking beyond 16
    inputs: MIG rewriting and compiled PLiM programs are verified
    symbolically (see [Plim_core.Verify.check_symbolic]) for circuits
    whose BDDs stay tractable — e.g. 128-bit adders and shifters with an
    interleaved variable order.

    Nodes are hash-consed in a manager, so semantic equality is physical
    equality of node indices. *)

type man
(** A manager fixes the number of variables and their order. *)

type t
(** A node handle, canonical within its manager. *)

val manager : ?order:int array -> num_vars:int -> unit -> man
(** [manager ~num_vars ()] with the identity order.  [order.(v)] is the
    decision level of variable [v] (a permutation of [0..num_vars-1]);
    lower levels decide first.
    @raise Invalid_argument if [order] is not a permutation. *)

val false_ : man -> t
val true_ : man -> t
val var : man -> int -> t

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor : man -> t -> t -> t
val ite : man -> t -> t -> t -> t
val maj : man -> t -> t -> t -> t

val equal : t -> t -> bool
(** Semantic equivalence (canonical representation). *)

val is_const : t -> bool

val eval : man -> t -> bool array -> bool

val size : man -> t -> int
(** Number of decision nodes reachable from [t]. *)

val interleave : int -> int -> int array
(** [interleave groups width] is the order that interleaves [groups]
    words of [width] bits declared one after the other — the classic
    order that keeps adder/comparator BDDs linear: variable [g*width + i]
    gets level [i*groups + g]. *)
