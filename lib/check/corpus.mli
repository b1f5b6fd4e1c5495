(** Persisted counterexample corpus.

    Every MIG the fuzzer shrinks to a minimal failing witness is written
    to a corpus directory as a [.mig] file (the {!Plim_mig.Mig_io} text
    format, whose parser skips [#] comment lines carrying provenance
    metadata).  [test/corpus/] is committed and replayed by
    [test_regression.ml] on every [dune runtest], so each bug found by
    fuzzing becomes a permanent tier-1 regression test.

    Files are named [cex-<digest>.mig] from a content digest, which makes
    saves idempotent: rediscovering a known counterexample never creates a
    duplicate entry. *)

module Mig = Plim_mig.Mig

val save : dir:string -> ?meta:string list -> Mig.t -> string
(** Write the graph (creating [dir] if needed) with one [# line] per
    [meta] entry; returns the file path.  Idempotent per digest. *)

val load_file : string -> (Mig.t, string) result
(** {!Plim_mig.Mig_io.read_file}. *)

val entries : string -> (string * (Mig.t, string) result) list
(** All [.mig] entries of a corpus directory, sorted by file name, each
    with its parse result; the empty list when the directory does not
    exist. *)
