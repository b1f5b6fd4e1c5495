(** Seeded request mixes for the compile-and-execute service.

    A {!mix} describes a population of client programs and how requests
    over them are distributed: program popularity is Zipfian (a few hot
    programs dominate, a long tail trickles), and each program's input
    vectors are split into a small {e hot pool} of recurring vectors and
    a stream of cold one-off vectors.  Both skews are the levers the
    serve experiments turn: popularity skew concentrates compile-cache
    hits, input skew concentrates wear on the cells a hot vector
    touches.

    Generation is a pure function of [(mix, seed, requests)] — the same
    arguments always produce the same request list, which is what the
    [-j 1] vs [-j N] byte-identity checks replay. *)

module Mig = Plim_mig.Mig

type request =
  | Compile of { graph : Mig.t }
      (** compile [graph] (and cache it under its digest) *)
  | Execute of { digest : string; inputs : (string * bool) list }
      (** run the cached program of [digest] on [inputs] *)

type program = {
  label : string;
  graph : Mig.t;
  digest : string;  (** {!Cache.digest_of} of [graph] *)
}

type mix = {
  programs : program list;   (** popularity-ranked: head is hottest *)
  zipf : float;              (** Zipf exponent [s]; 0 = uniform *)
  hot_fraction : float;      (** probability an Execute draws a hot vector *)
  hot_pool : int;            (** recurring input vectors per program *)
  compile_ratio : float;     (** probability of a redundant Compile request *)
}

val mix_of_suite :
  ?zipf:float ->
  ?hot_fraction:float ->
  ?hot_pool:int ->
  ?compile_ratio:float ->
  Plim_benchgen.Suite.spec list ->
  mix
(** Build a mix over benchmark suite entries in list order (first =
    most popular).  Defaults: [zipf = 1.0], [hot_fraction = 0.8],
    [hot_pool = 4], [compile_ratio = 0.05]. *)

val zipf_mass : float -> int -> float array
(** [zipf_mass s n] is the normalised Zipfian probability mass over
    ranks [1..n]: element [i] is [1/(i+1)^s] divided by the total.
    Exposed for the chi-square sanity tests.
    @raise Invalid_argument when [n <= 0]. *)

val generate : seed:int -> requests:int -> mix -> request list
(** [generate ~seed ~requests mix] is the deterministic request
    sequence: one warm-up [Compile] per program (in popularity order)
    followed by [requests] sampled requests.  A sampled request picks a
    program Zipfian-by-rank, then is a redundant [Compile] with
    probability [compile_ratio], else an [Execute] whose inputs come
    from the program's hot pool with probability [hot_fraction] and are
    drawn fresh otherwise.  Hot-pool vectors are derived from [seed]
    alone, so the same hot vector recurs across the run. *)
