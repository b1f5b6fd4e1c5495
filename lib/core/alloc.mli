(** RRAM device allocator used during PLiM compilation.

    Owns the pool of freed devices, the per-device (static) write counters
    and the two direct endurance-management techniques of the paper:

    - {b minimum write count strategy}: [request] returns the free device
      with the smallest write count ([Min_write]);
    - {b maximum write count strategy}: with [max_write = Some w], devices
      whose count reached the cap are retired from the pool and are
      refused as in-place RM3 destinations, forcing the compiler to spend
      extra instructions and devices instead of wearing cells past [w].

    [Lifo] reuse is the naive baseline (most recently freed device first —
    maximally unbalanced); [Fifo] rotates the pool and is kept as an
    ablation point between the two. *)

type strategy = Lifo | Fifo | Min_write

type t

val create : ?max_write:int -> ?is_faulty:(int -> bool) -> strategy:strategy -> unit -> t
(** [is_faulty] puts the allocator in fault-aware mode: physical device
    indices it marks bad (e.g. a {!Plim_fault.Fault_model.cell_fault}
    oracle from a known fault map) are skipped — they still occupy
    address space and count toward {!total_allocated}, but are never
    handed out, so the compiled program never touches them.
    @raise Invalid_argument if [max_write < 3] (at least a constant load
    plus an RM3 must fit in any fresh device for compilation to make
    progress). *)

val request : ?needed:int -> t -> int
(** [request ?needed t] is a device guaranteed to accept at least [needed]
    (default 2) further writes under the cap: the best free device per the
    strategy, or a fresh one.  The device leaves the pool.  A destination
    that is first initialised, then RM3-copied into, and finally rewritten
    by the consuming instruction needs 3. *)

val release : t -> int -> unit
(** Returns a dead device to the pool (or retires it if it cannot take two
    more writes under the cap).  Its write count is retained. *)

val can_write : t -> int -> bool
(** Whether one more write on the device is allowed under the cap. *)

val note_write : t -> int -> unit
(** Record one write (call per emitted instruction on its destination). *)

val writes_of : t -> int -> int

val total_allocated : t -> int
(** The paper's #R: number of devices ever allocated. *)

val write_counts : t -> int array
(** Snapshot, length [total_allocated]. *)

val free_count : t -> int
