module Mig = Plim_mig.Mig
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type pass = Axioms.rule list

let m_passes = Metrics.counter "rewrite.passes"
let m_passes_skipped = Metrics.counter "rewrite.passes_skipped"
let m_cycles = Metrics.counter "rewrite.cycles"

(* What the dry scan reads of a graph, filled by one [Mig.sweep_into]:
   the reachable mark, each node's fanout including output references, and
   whether the graph is compact.  [map] is a rebuild's old -> new signal
   map.  The arrays are at least as long as the graph swept last. *)
type scratch = {
  mutable reachable : bool array;
  mutable refs : int array;
  mutable map : Mig.signal array;
  mutable compact : bool;
}

let scratch ~nodes =
  { reachable = Array.make nodes false;
    refs = Array.make nodes 0;
    map = Array.make nodes Mig.false_;
    compact = false }

(* Rebuild storage for a graph of [n] nodes, with room for the growth of
   a first Ω.D pass: on the AIG-expanded EPFL circuits it adds 11-18% of
   the nodes (sqrt 11%, mem_ctrl 18%), and storage of the exact size
   would be outgrown by the first rebuild, whose target doubles its
   arrays. *)
let headroom n = n + (n / 4)

(* Fills [s] with the facts of [g], first replacing the arrays, with
   headroom, when [g] has outgrown them. *)
let sweep s g =
  let n = Mig.num_nodes g in
  if Array.length s.refs < n then begin
    let n = headroom n in
    s.reachable <- Array.make n false;
    s.refs <- Array.make n 0;
    s.map <- Array.make n Mig.false_
  end;
  s.compact <- Mig.sweep_into g ~reachable:s.reachable ~refs:s.refs

(* The old fanout of a signal's node, from [refs] of [scratch]. *)
let fanout refs (s : Mig.signal) = refs.((s :> int) lsr 1)

(* On a compact graph, a rebuild in which no rule fires reproduces the
   graph id for id.  So the pass first walks the graph in id order and asks
   each rule whether it would fire, with the same operands the rebuild
   would pass and with strash lookups limited to the ids below the node:
   mid-rebuild, the new graph holds only that prefix.  Only when some rule
   fires, or the graph is not compact, does the pass pay for the rebuild,
   into [target ()].  [s] must hold the facts of [g].  Both loops read node
   fields and [refs] directly: under [-opaque] a call into [Mig] per read
   would cost more than the read. *)
let run_pass_raw (g : Mig.t) s rules ~target =
  let refs = s.refs in
  let fires id =
    g.tag.(id) = Mig.Tag_maj
    && begin
      let a = g.c0.(id) and b = g.c1.(id) and c = g.c2.(id) in
      Option.is_some
        (Axioms.first rules g ~below:id a (fanout refs a) b (fanout refs b) c
           (fanout refs c))
    end
  in
  let n = Mig.num_nodes g in
  let rec quiet id = id >= n || (not (fires id) && quiet (id + 1)) in
  if s.compact && quiet 0 then g
  else begin
    let into = target () in
    Mig.rebuild_into ~reachable:s.reachable ~map:s.map g ~into ~rule:(fun g' ~old_id a b c ->
        Axioms.apply_first rules g' a
          (fanout refs g.c0.(old_id))
          b
          (fanout refs g.c1.(old_id))
          c
          (fanout refs g.c2.(old_id)));
    into
  end

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

let run_pass g rules =
  count_pass "pass" g (fun g ->
      let s = scratch ~nodes:(Mig.num_nodes g) in
      sweep s g;
      run_pass_raw g s rules ~target:(fun () -> Mig.create_sized ~nodes:(Mig.num_nodes g) ()))

type recipe = No_rewriting | Algorithm1 | Algorithm2

let recipe_name = function
  | No_rewriting -> "none"
  | Algorithm1 -> "dac16"
  | Algorithm2 -> "endurance"

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

(* A pass is a pure function of its input graph and rule list, and it
   never mutates its input.  So while the graph stays the same, the recipe
   keeps its facts and the rule lists found quiet on it (the passes share
   their lists, so [List.memq] finds them), and a pass whose list is known
   quiet returns the graph without a scan.  A rebuild forgets both.  After
   a cycle that changes nothing every list is known quiet, so the later
   cycles cost only their counters.

   The rebuild storage belongs to one call and is allocated once, at its
   start, sized from [input] with [headroom]: two target graphs that
   rebuilds alternate between and that hold one strash
   ([Mig.create_twin]), and a scratch for the facts and the old -> new
   map.  A rebuild writes into the target that does not hold the current
   graph, so it never writes the graph it reads, and never [input]: the
   caller's graph is only ever a source.  One strash serves both targets
   because a rebuild reads only its source's node fields and I/O tables,
   and each dry scan, which looks up the current graph's strash, ends
   before the next rebuild empties it for the other target.  A graph that
   outgrows the headroom gets larger arrays from [sweep] and
   [Mig.rebuild_into].  The result is a fresh [Mig.cleanup] of the last
   graph, which reads the scratch but keeps nothing of it, so no rebuild
   storage outlives the call.  The targets are made before the scratch:
   with the same words allocated, that order left design-sweep's heap
   peak 5.6 MB lower than the scratch first (EXPERIMENTS.md). *)
let cycles passes ~effort input =
  let nodes = headroom (Mig.num_nodes input) in
  let a = Mig.create_sized ~nodes () in
  let b = Mig.create_twin ~nodes a in
  let s = scratch ~nodes in
  let target g () = if g == a then b else a in
  let step (g, swept, quiet) (name, rules) =
    if List.memq rules quiet then (count_pass name g Fun.id, swept, quiet)
    else begin
      if not swept then sweep s g;
      let g' = count_pass name g (fun g -> run_pass_raw g s rules ~target:(target g)) in
      if g' == g then (g, true, rules :: quiet) else (g', false, [])
    end
  in
  let rec go n state =
    if n <= 0 then state
    else begin
      Metrics.incr m_cycles;
      go (n - 1) (List.fold_left step state passes)
    end
  in
  let g, swept, _ = go (max 0 effort) (input, false, []) in
  if not swept then sweep s g;
  Mig.cleanup ~reachable:s.reachable ~map:s.map g

let run recipe ~effort g =
  Profile.span "rewrite.recipe" @@ fun () ->
  match recipe with
  | No_rewriting -> Mig.cleanup g
  | Algorithm1 -> cycles algorithm1_passes ~effort g
  | Algorithm2 -> cycles algorithm2_passes ~effort g
