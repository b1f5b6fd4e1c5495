module Mig = Plim_mig.Mig
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type pass = Axioms.rule list

let m_passes = Metrics.counter "rewrite.passes"
let m_passes_skipped = Metrics.counter "rewrite.passes_skipped"
let m_cycles = Metrics.counter "rewrite.cycles"

(* On a compact graph, a rebuild in which no rule fires reproduces the
   graph id for id.  So the pass first walks the graph in id order and asks
   each rule whether it would fire, with the same operands the rebuild
   would pass and with strash lookups limited to the ids below the node:
   mid-rebuild, the new graph holds only that prefix.  Only when some rule
   fires, or the graph is not compact, does the pass pay for the rebuild. *)
let run_pass_raw g rules =
  let reachable = Mig.reachable g in
  let fanout = Mig.fanout_counts ~reachable g in
  let out_refs = Mig.output_refs g in
  let operand new_s old_s =
    let id = Mig.node_of old_s in
    { Axioms.s = new_s; old_fanout = fanout.(id) + out_refs.(id) }
  in
  let fires id =
    if not (Mig.is_maj g id) then false
    else begin
      let a = Mig.child g id 0 and b = Mig.child g id 1 and c = Mig.child g id 2 in
      Option.is_some
        (Axioms.first rules g ~below:id (operand a a) (operand b b) (operand c c))
    end
  in
  let rec quiet id = id >= Mig.num_nodes g || (not (fires id) && quiet (id + 1)) in
  if Mig.is_compact ~reachable g && quiet 0 then g
  else
    Mig.map_rebuild ~reachable g ~rule:(fun g' ~old_id a b c ->
        Axioms.apply_first rules g'
          (operand a (Mig.child g old_id 0))
          (operand b (Mig.child g old_id 1))
          (operand c (Mig.child g old_id 2)))

(* One pass's span, counters and trace event around [rebuild g]. *)
let count_pass name g rebuild =
  Profile.span "rewrite.pass" @@ fun () ->
  Metrics.incr m_passes;
  let g' = rebuild g in
  if g' == g then Metrics.incr m_passes_skipped;
  if Trace.enabled () then
    Trace.emit "rewrite.pass"
      ~args:
        [ ("pass", String name); ("size_before", Int (Mig.size g));
          ("size_after", Int (Mig.size g')) ];
  g'

let run_pass ?(name = "pass") g rules =
  count_pass name g (fun g -> run_pass_raw g rules)

type recipe = No_rewriting | Algorithm1 | Algorithm2

let recipe_name = function
  | No_rewriting -> "none"
  | Algorithm1 -> "dac16"
  | Algorithm2 -> "endurance"

let pp_recipe ppf r = Format.pp_print_string ppf (recipe_name r)

let d_rl = ("D(R->L)", [ Axioms.distributivity_rl ])
let i_rl = ("I(R->L)", [ Axioms.inverter_propagation ])

(* Algorithm 1 (DAC'16 [21]):
   1: Ω.M; Ω.D(R->L)   2: Ω.A; Ψ.C   3: Ω.M; Ω.D(R->L)
   4: Ω.I(R->L)(1-3)   5: Ω.I(R->L) *)
let algorithm1_passes =
  [ d_rl;
    ("A;psi.C", [ Axioms.associativity; Axioms.complementary_associativity ]);
    d_rl; i_rl; i_rl ]

(* Algorithm 2 (this paper):
   1: Ω.M; Ω.D(R->L)   2: Ω.I(1-3)   3: Ω.I   4: Ω.A
   5: Ω.I(1-3)         6: Ω.I        7: Ω.M; Ω.D(R->L)   8: Ω.I *)
let algorithm2_passes =
  [ d_rl; i_rl; i_rl; ("A", [ Axioms.associativity ]); i_rl; i_rl; d_rl; i_rl ]

(* A cycle that returns its input physically ran only identity passes,
   and a pass is a pure function of its input graph, so every later cycle
   is the identity too.  Those cycles are not run; each of their passes is
   counted as skipped. *)
let cycles passes ~effort g =
  let cycle ~converged g =
    List.fold_left
      (fun g (name, rules) ->
        let rebuild = if converged then Fun.id else fun g -> run_pass_raw g rules in
        count_pass name g rebuild)
      g passes
  in
  let rec go n ~converged g =
    if n <= 0 then g
    else begin
      Metrics.incr m_cycles;
      let g' = cycle ~converged g in
      go (n - 1) ~converged:(g' == g) g'
    end
  in
  Mig.cleanup (go (max 0 effort) ~converged:false g)

let algorithm1 ~effort g = cycles algorithm1_passes ~effort g
let algorithm2 ~effort g = cycles algorithm2_passes ~effort g

let run recipe ~effort g =
  Profile.span "rewrite.recipe" @@ fun () ->
  match recipe with
  | No_rewriting -> Mig.cleanup g
  | Algorithm1 -> algorithm1 ~effort g
  | Algorithm2 -> algorithm2 ~effort g
