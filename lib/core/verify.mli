(** Functional verification of compiled programs.

    Every compilation result can be executed on the crossbar machine and
    compared against direct evaluation of the source MIG — catching bugs
    in rewriting, scheduling and translation alike.  {!check_random} and
    {!check_exhaustive} also cross-validate the statically-derived write
    counts against the counts observed by the crossbar model. *)

module Mig = Plim_mig.Mig
module Program = Plim_isa.Program

val check_vector :
  Mig.t -> Program.t -> bool array -> (unit, string) result
(** Compare machine execution against MIG evaluation for one input
    assignment (positionally, PI declaration order). *)

val check_random :
  ?trials:int -> ?seed:int -> Mig.t -> Program.t -> (unit, string) result
(** [check_random mig program] runs [trials] (default 32) random vectors.
    Also verifies three-way per-cell write-count agreement on every trial:
    {!Plim_isa.Program.static_write_counts}, the bound
    {!Plim_analyze.write_counts} derives from its def-use chains, and the
    counts observed by the crossbar.  The two static arrays depend only
    on [program]: they are derived once per call, on the first trial that
    reaches the comparison (so [~trials:0] derives nothing), and every
    trial's crossbar counts are compared against them.

    Fully deterministic in [seed] (default [0x5eed]): the vector stream is
    one splitmix64 stream and no global [Random] state is consulted, so
    the same seed yields a byte-identical result — failure messages embed
    the seed and the failing input vector as a replayable witness. *)

val check_exhaustive : Mig.t -> Program.t -> (unit, string) result
(** All [2^n] vectors, in minterm order (input [i] is bit [i] of the
    minterm), with the same three-way write-count check as
    {!check_random} on every minterm against arrays derived once per
    call.  The run time doubles with every input.

    @raise Invalid_argument when the MIG has more than 20 inputs. *)

val check_symbolic :
  ?order:int array -> Mig.t -> Program.t -> (unit, string) result
(** Formal verification by symbolic execution: every memory cell holds a
    BDD over the primary inputs, each RM3 instruction updates its
    destination symbolically, and the final output cells are compared
    against the MIG's output BDDs.  Complete (no sampling); feasible
    whenever the circuit has a good variable [order] — e.g. bit-interleaved
    operands for adders and comparators ({!Plim_logic.Bdd.interleave}). *)
