(** Compile cache keyed by MIG digest.

    The service compiles each distinct MIG once: requests carry (or
    imply) the FNV-1a digest of the graph's canonical [.mig] text —
    the same digest {!Plim_check.Corpus} names its regression files
    with — and repeated digests are served from the cache.  Hit/miss
    counters make cache effectiveness observable per run. *)

module Mig = Plim_mig.Mig
module Pipeline = Plim_core.Pipeline

type t

val digest_of : Mig.t -> string
(** FNV-1a 64-bit digest (hex) of the canonical [.mig] serialisation —
    what "the same MIG" means to the cache.  It is
    {!Plim_mig.Mig_io.digest}, which hashes the text as it is emitted and
    never builds it. *)

val create : unit -> t

val find : t -> string -> Pipeline.result option
(** Silent lookup: no counter movement.  The scheduler uses it to
    classify a batch before compiling. *)

val hit : t -> string -> Pipeline.result option
(** Counted lookup: bumps the hit counter on [Some], the miss counter
    on [None]. *)

val record_hit : t -> unit
val record_miss : t -> unit
(** Manual counter movement, for lookups the scheduler resolves itself.
    A compile request whose digest is already being compiled earlier in
    the same batch is served by that in-flight compile: it counts as a
    hit even though {!find} still returns [None], keeping the counters
    independent of the batch size. *)

val add : t -> digest:string -> Pipeline.result -> unit
(** Insert (first writer wins: re-adding an existing digest is a no-op,
    so merge order cannot change an entry). *)

val hits : t -> int
val misses : t -> int

val entries : t -> (string * Pipeline.result) list
(** All entries sorted by digest — a deterministic iteration order for
    fleet sizing and reporting. *)
