(** Deterministic splitmix64 pseudo-random number generator.

    All randomness in the project (random control benchmarks, verification
    vectors, property-test corpora) flows through this generator so that
    every experiment is reproducible from a seed. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive.
    Uniformity is exact (rejection sampling, no modulo bias); a rejected
    draw advances the state one extra step, with probability below
    [bound / 2^62] per call. *)

val bool : t -> bool

val bits53 : t -> int
(** The top 53 bits of the next raw output, uniform in [\[0, 2^53)]: the
    integer behind {!float}.  Returns an immediate, so a caller that
    compares a draw with a probability can scale it itself and box no
    float. *)

val float : t -> float
(** Uniform in [\[0, 1)]: [bits53 t / 2^53], exactly. *)

val bits : t -> width:int -> bool array
(** [bits t ~width] is a uniform bit vector, LSB first. *)

val derive : int -> int -> int
(** [derive root i] is the seed of the [i]-th child stream of [root]: a
    pure function of [(root, i)] with well-separated internal states, so
    parallel tasks seeded per-index draw independently of scheduling,
    completion order and each other.  [i] must be non-negative. *)
