module Mig = Plim_mig.Mig
module Splitmix = Plim_util.Splitmix

type request =
  | Compile of { graph : Mig.t }
  | Execute of { digest : string; inputs : (string * bool) list }

type program = { label : string; graph : Mig.t; digest : string }

type mix = {
  programs : program list;
  zipf : float;
  hot_fraction : float;
  hot_pool : int;
  compile_ratio : float;
}

let mix_of_suite ?(zipf = 1.0) ?(hot_fraction = 0.8) ?(hot_pool = 4)
    ?(compile_ratio = 0.05) specs =
  if specs = [] then invalid_arg "Workload.mix_of_suite: empty suite";
  let programs =
    List.map
      (fun (spec : Plim_benchgen.Suite.spec) ->
        let graph = Plim_benchgen.Suite.build_cached spec in
        { label = spec.Plim_benchgen.Suite.name; graph;
          digest = Cache.digest_of graph })
      specs
  in
  { programs; zipf; hot_fraction; hot_pool; compile_ratio }

let zipf_mass s n =
  if n <= 0 then invalid_arg "Workload.zipf_mass: need a positive rank count";
  let mass = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let total = Array.fold_left ( +. ) 0.0 mass in
  Array.map (fun m -> m /. total) mass

(* Inverse-CDF sampling over the (small) rank population: a uniform draw
   walks the cumulative mass.  O(n) per draw is fine — mixes have tens of
   programs, not millions. *)
let sample_rank rng cumulative =
  let u = Splitmix.float rng in
  let n = Array.length cumulative in
  let rec find i = if i >= n - 1 || u < cumulative.(i) then i else find (i + 1) in
  find 0

(* One [(name, false)] and one [(name, true)] binding per input, built once
   per program: a vector shares them and allocates only its list. *)
let bindings graph =
  Array.map (fun name -> ((name, false), (name, true))) (Mig.input_names graph)

let input_vector rng bindings =
  Array.to_list
    (Array.map (fun (off, on) -> if Splitmix.bool rng then on else off) bindings)

let generate ~seed ~requests mix =
  if requests < 0 then invalid_arg "Workload.generate: negative request count";
  if mix.programs = [] then invalid_arg "Workload.generate: empty program mix";
  if mix.hot_pool < 0 then invalid_arg "Workload.generate: negative hot pool";
  let programs = Array.of_list mix.programs in
  let n = Array.length programs in
  let bindings = Array.map (fun p -> bindings p.graph) programs in
  let mass = zipf_mass mix.zipf n in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i m ->
      acc := !acc +. m;
      cumulative.(i) <- !acc)
    mass;
  (* Hot pools depend only on (seed, program rank, slot) — not on the
     request stream — so the same recurring vectors appear whatever the
     request count. *)
  let hot_vectors =
    Array.init n (fun rank ->
        Array.init mix.hot_pool (fun slot ->
            let vseed = Splitmix.derive (Splitmix.derive seed (1 + rank)) slot in
            input_vector (Splitmix.create vseed) bindings.(rank)))
  in
  let rng = Splitmix.create (Splitmix.derive seed 0) in
  let sampled =
    List.init requests (fun _ ->
      let rank = sample_rank rng cumulative in
      let p = programs.(rank) in
      if Splitmix.float rng < mix.compile_ratio then
        Compile { graph = p.graph }
      else
        let inputs =
          if mix.hot_pool > 0 && Splitmix.float rng < mix.hot_fraction then
            hot_vectors.(rank).(Splitmix.int rng mix.hot_pool)
          else input_vector rng bindings.(rank)
        in
        Execute { digest = p.digest; inputs })
  in
  (* the warm-up compiles go in front of the sampled stream, which is not
     copied *)
  List.fold_right
    (fun p stream -> Compile { graph = p.graph } :: stream)
    mix.programs sampled
