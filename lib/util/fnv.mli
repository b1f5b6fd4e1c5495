(** FNV-1a 64-bit content digests.

    One shared implementation of the digest that keys content-addressed
    storage across the repo: the fuzzer's counterexample corpus
    ({!Plim_check.Corpus}) names files by it and the serve layer's
    compile cache ({!Plim_serve.Cache}) keys compiled programs by it, so
    both necessarily agree on what "the same MIG" means.

    FNV-1a is not cryptographic; it is a fast, stable, dependency-free
    64-bit hash with good dispersion over short ASCII texts — exactly
    the MIG serialisations it is fed. *)

type t
(** A running hash.  Feeding it bytes allocates nothing, so a text can be
    hashed as it is produced instead of being built first. *)

val create : unit -> t
(** The hash of the empty string. *)

val add_char : t -> char -> unit

val add_string : t -> string -> unit

val add_int : t -> int -> unit
(** Feeds the decimal text of the int, as [string_of_int] writes it;
    allocates nothing for non-negative ints. *)

val hex : t -> string
(** The hash of every byte fed so far, as 16 lowercase hex characters. *)

val digest_string : string -> string
(** The hash as 16 lowercase hex characters — the canonical textual
    digest used in corpus file names and cache keys. *)
