(** Deterministic multicore execution on a fixed-size OCaml 5 domain pool.

    The pool trades only wall-clock for parallelism, never output:
    {!map} merges results in submission order regardless of completion
    order, and a pool of [jobs = 1] never spawns a domain — it *is* the
    sequential program, byte for byte.
    That identity is what the repo's [-j 1] vs [-j N] determinism checks
    pin down.

    Scheduling is a shared FIFO drained by [jobs - 1] worker domains plus
    the submitter itself ("helping join"): while a batch is unfinished its
    submitter executes queued tasks, so a nested {!map} issued from inside
    a task cannot deadlock.

    Observability: the pool maintains the [par.tasks_queued],
    [par.tasks_stolen] (run by a worker domain) and [par.tasks_inline]
    (run by their submitter) counters, the [par.tasks_running] and
    [par.pool_jobs] gauges, and records a [par.map] profiling span per
    {!map} call at every [jobs] level. *)

type t

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the [-j] default. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] spawns [jobs - 1] worker domains (none when
    [jobs = 1]).  [jobs] defaults to {!default_jobs}; it must be >= 1. *)

val jobs : t -> int

val map : t -> f:('a -> 'b) -> 'a list -> 'b list
(** [map t ~f xs] computes [List.map f xs] with the elements evaluated on
    the pool.  If any task raised, the exception of the lowest failing
    index is re-raised after all tasks finished — the same failure a
    sequential run would surface first.  Tasks must not assume they run
    on any particular domain; shared state they touch must be
    domain-safe. *)

val mapi : t -> f:(int -> 'a -> 'b) -> 'a list -> 'b list

val shutdown : t -> unit
(** Join the worker domains.  Idempotent.  Outstanding queued tasks are
    drained first; calling {!map} afterwards raises [Invalid_argument]. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] with a fresh pool, shutting it down on exit
    (also on exceptions). *)
