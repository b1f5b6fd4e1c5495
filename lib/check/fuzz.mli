(** Differential fuzzing driver.

    Draws random MIG descriptions from a master seed, runs the full
    {!Check} conformance suite on each, greedily shrinks any failure to a
    structurally minimal description, and persists the shrunk witness in
    the counterexample {!Corpus}.  Fully deterministic: the case sequence
    is a pure function of [seed], and each case records its own
    [case_seed] so a single counterexample can be regenerated without
    replaying the whole campaign. *)

module Mig = Plim_mig.Mig

type options = {
  runs : int;
  seed : int;
  max_inputs : int;
  max_nodes : int;
  max_outputs : int;
  corpus_dir : string option;  (** [None] disables persistence *)
  shrink : bool;
}

val default_options : options
(** 200 runs, seed 42, ≤ 6 inputs, ≤ 32 nodes, ≤ 4 outputs, corpus at
    [test/corpus], shrinking on. *)

type counterexample = {
  run_index : int;
  case_seed : int;       (** regenerate with [plimc fuzz --case-seed] *)
  desc : Gen.desc;       (** the shrunk minimal witness *)
  failures : Check.failure list;  (** failures of the shrunk witness *)
  shrink_steps : int;
  path : string option;  (** corpus file, when persistence is on *)
}

type report = {
  cases : int;
  counterexamples : counterexample list;
}

val case_seed_of : seed:int -> int -> int
(** [case_seed_of ~seed i] is the derived seed of campaign case [i]. *)

val desc_of_case_seed : options -> int -> Gen.desc
(** The description a given case seed generates under these options. *)

val run :
  ?pool:Plim_par.t ->
  ?check:(Mig.t -> Check.failure list) ->
  ?case_seeds:int list ->
  ?on_case:(int -> unit) ->
  options ->
  report
(** Run the campaign.  [check] defaults to {!Check.run} with the default
    matrix (overridable for harness self-tests); [case_seeds] replaces
    the seed-derived case sequence for targeted replay; [on_case] is a
    progress callback invoked before each case (concurrently when a pool
    is given).

    With [pool], generation and checking fan out across the pool's
    domains; shrinking and corpus persistence then run sequentially over
    the failing cases in submission order.  Because each case's seed is
    fixed up front, the report — including the first counterexample and
    every shrunk witness — is byte-identical at any pool width to the
    sequential run. *)
