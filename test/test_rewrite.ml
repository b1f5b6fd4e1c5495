module Mig = Plim_mig.Mig
module Mig_gen = Plim_mig.Mig_gen
module Mig_io = Plim_mig.Mig_io
module Tt = Plim_logic.Truth_table
module Axioms = Plim_rewrite.Axioms
module Recipe = Plim_rewrite.Recipe
module Suite = Plim_benchgen.Suite

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let signal_equal (a : Mig.signal) b = a = b

let functionally_equal g g' =
  Mig.num_inputs g = Mig.num_inputs g'
  && Mig.num_outputs g = Mig.num_outputs g'
  && Array.for_all2 Tt.equal (Mig.output_tables g) (Mig.output_tables g')

let random_mig ?(inputs = 6) ?(nodes = 50) seed =
  Mig_gen.random ~seed ~num_inputs:inputs ~num_nodes:nodes ~num_outputs:4 ()

(* every pass must preserve the Boolean functions of all outputs *)
let pass_preserves name rules =
  QCheck.Test.make ~count:80 ~name:(Printf.sprintf "pass [%s] preserves function" name)
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      functionally_equal g (Recipe.run_pass g rules))

let distributivity_preserves = pass_preserves "distributivity" [ Axioms.distributivity_rl ]
let associativity_preserves = pass_preserves "associativity" [ Axioms.associativity ]

let psi_c_preserves =
  pass_preserves "complementary associativity" [ Axioms.complementary_associativity ]

let inverter_preserves = pass_preserves "inverter propagation" [ Axioms.inverter_propagation ]

let all_rules_preserve =
  pass_preserves "all rules"
    [ Axioms.distributivity_rl;
      Axioms.associativity;
      Axioms.complementary_associativity;
      Axioms.inverter_propagation ]

let recipe_preserves name recipe =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "%s preserves function" name)
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      functionally_equal g (Recipe.run recipe ~effort:3 g))

let algorithm1_preserves = recipe_preserves "algorithm 1 (DAC'16)" Recipe.Algorithm1
let algorithm2_preserves = recipe_preserves "algorithm 2 (endurance-aware)" Recipe.Algorithm2

(* after an inverter-propagation pass no node keeps >= 2 complemented
   non-constant children *)
let inverter_invariant =
  QCheck.Test.make ~count:60 ~name:"inverter pass leaves <= 1 complemented child"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      let g' = Recipe.run_pass g [ Axioms.inverter_propagation ] in
      let ok = ref true in
      Mig.iter_reachable_maj g' (fun id ->
          match Mig.kind g' id with
          | Mig.Maj (a, b, c) ->
            let count s =
              if Mig.is_complemented s && not (Mig.is_const s) then 1 else 0
            in
            if count a + count b + count c >= 2 then ok := false
          | Mig.Const | Mig.Input _ -> ());
      !ok)

(* rewriting never grows the graph on AIG-shaped inputs *)
let never_grows =
  QCheck.Test.make ~count:30 ~name:"algorithm 2 does not grow AIG inputs"
    QCheck.small_int (fun seed ->
      let g = Plim_benchgen.Frontend.expand (random_mig seed) in
      Mig.size (Recipe.run Recipe.Algorithm2 ~effort:2 g) <= Mig.size g)

(* --- directed cases ----------------------------------------------------- *)

(* <<xyu><xyv>z> collapses to <xy<uvz>> when the inner nodes die *)
let test_distributivity_collapse () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let y = Mig.add_input g "y" in
  let u = Mig.add_input g "u" in
  let v = Mig.add_input g "v" in
  let z = Mig.add_input g "z" in
  let a = Mig.maj g x y u in
  let b = Mig.maj g x y v in
  let top = Mig.maj g a b z in
  Mig.add_output g "f" top;
  check_int "three nodes before" 3 (Mig.size g);
  let g' = Recipe.run_pass g [ Axioms.distributivity_rl ] in
  check_int "two nodes after" 2 (Mig.size g');
  check_bool "equivalent" true (functionally_equal g g')

(* the inverter rule flips a node with two complemented children *)
let test_inverter_flip () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let y = Mig.add_input g "y" in
  let z = Mig.add_input g "z" in
  let n = Mig.maj g (Mig.not_ x) (Mig.not_ y) z in
  Mig.add_output g "f" n;
  check_int "two complemented edges" 2 (Mig.num_complemented_edges g);
  let g' = Recipe.run_pass g [ Axioms.inverter_propagation ] in
  check_int "one complemented edge left" 1 (Mig.num_complemented_edges g');
  check_bool "equivalent" true (functionally_equal g g')

(* psi.c removes a complemented edge: <x u <y !x z>> = <x u <y u z>> *)
let test_psi_c_removes_complement () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let u = Mig.add_input g "u" in
  let y = Mig.add_input g "y" in
  let z = Mig.add_input g "z" in
  let inner = Mig.maj g y (Mig.not_ x) z in
  let top = Mig.maj g x u inner in
  Mig.add_output g "f" top;
  check_int "one complemented edge" 1 (Mig.num_complemented_edges g);
  let g' = Recipe.run_pass g [ Axioms.complementary_associativity ] in
  check_int "edge removed" 0 (Mig.num_complemented_edges g');
  check_bool "equivalent" true (functionally_equal g g')

(* associativity commits only on free inner nodes and keeps the function *)
let test_associativity_directed () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let u = Mig.add_input g "u" in
  let y = Mig.add_input g "y" in
  let inner = Mig.maj g y u x in
  let top = Mig.maj g x u inner in
  Mig.add_output g "f" top;
  let g' = Recipe.run_pass g [ Axioms.associativity ] in
  check_bool "equivalent" true (functionally_equal g g')

let test_effort_zero_is_cleanup () =
  let g = random_mig 5 in
  let g' = Recipe.run Recipe.Algorithm1 ~effort:0 g in
  check_int "same size as cleanup" (Mig.size (Mig.cleanup g)) (Mig.size g')

let test_no_rewriting () =
  let g = random_mig 6 in
  let g' = Recipe.run Recipe.No_rewriting ~effort:5 g in
  check_int "untouched size" (Mig.size (Mig.cleanup g)) (Mig.size g');
  check_bool "equivalent" true (functionally_equal g g')

let test_recipe_names () =
  Alcotest.(check string) "none" "none" (Recipe.recipe_name Recipe.No_rewriting);
  Alcotest.(check string) "dac16" "dac16" (Recipe.recipe_name Recipe.Algorithm1);
  Alcotest.(check string) "endurance" "endurance" (Recipe.recipe_name Recipe.Algorithm2)

(* algorithms reduce AIG-expanded arithmetic circuits substantially *)
let test_formal_equivalence_wide () =
  (* complete BDD-based equivalence of the rewriting algorithms on a
     32-bit adder (64 inputs, beyond truth tables) *)
  let g = Plim_benchgen.Frontend.expand (Plim_benchgen.Arith.adder ~width:32) in
  let order = Plim_logic.Bdd.interleave 2 32 in
  let g1 = Recipe.run Recipe.Algorithm1 ~effort:3 g in
  let g2 = Recipe.run Recipe.Algorithm2 ~effort:3 g in
  check_bool "algorithm 1 formally equivalent" true
    (Plim_mig.Mig_bdd.equivalent ~order g g1);
  check_bool "algorithm 2 formally equivalent" true
    (Plim_mig.Mig_bdd.equivalent ~order g g2)

let test_reduction_on_adder () =
  let g = Plim_benchgen.Frontend.expand (Plim_benchgen.Arith.adder ~width:8) in
  let before = Mig.size g in
  let g1 = Recipe.run Recipe.Algorithm1 ~effort:5 g in
  let g2 = Recipe.run Recipe.Algorithm2 ~effort:5 g in
  check_bool "alg1 reduces" true (Mig.size g1 < before);
  check_bool "alg2 reduces" true (Mig.size g2 < before);
  check_bool "alg1 equivalent" true (functionally_equal g g1);
  check_bool "alg2 equivalent" true (functionally_equal g g2)

(* --- converged rewriting: the fast recipe equals the naive loop ---------- *)

(* The reference recipe: every pass a full rebuild, every cycle run. *)
let naive_pass g rules =
  let fanout = Mig.fanout_counts g and out_refs = Mig.output_refs g in
  let old_fanout s =
    let id = Mig.node_of s in
    fanout.(id) + out_refs.(id)
  in
  let into = Mig.create () in
  Mig.rebuild_into ~map:(Array.make (Mig.num_nodes g) Mig.false_) g ~into
    ~rule:(fun g' ~old_id a b c ->
      match Mig.kind g old_id with
      | Mig.Maj (oa, ob, oc) ->
        Axioms.apply_first rules g' a (old_fanout oa) b (old_fanout ob) c (old_fanout oc)
      | Mig.Const | Mig.Input _ -> Mig.maj g' a b c);
  into

let d_rl = [ Axioms.distributivity_rl ]
let i_rl = [ Axioms.inverter_propagation ]
let assoc = [ Axioms.associativity ]

let recipe_passes = function
  | Recipe.No_rewriting -> []
  | Recipe.Algorithm1 ->
    [ d_rl; [ Axioms.associativity; Axioms.complementary_associativity ]; d_rl; i_rl; i_rl ]
  | Recipe.Algorithm2 -> [ d_rl; i_rl; i_rl; assoc; i_rl; i_rl; d_rl; i_rl ]

let naive_cycle recipe g = List.fold_left naive_pass g (recipe_passes recipe)

let naive_recipe recipe ~effort g =
  let rec go n g = if n <= 0 then g else go (n - 1) (naive_cycle recipe g) in
  Mig.cleanup (go effort g)

let same_graph g g' = String.equal (Mig_io.to_string g) (Mig_io.to_string g')

let recipe_matches_naive g =
  List.for_all
    (fun recipe ->
      List.for_all
        (fun effort ->
          same_graph (Recipe.run recipe ~effort g) (naive_recipe recipe ~effort g))
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])
    [ Recipe.Algorithm1; Recipe.Algorithm2 ]

let fast_recipe_gen =
  QCheck.Test.make ~count:60 ~name:"fast recipe = naive loop (Gen graphs, efforts 0-8)"
    (Plim_check.Gen.arbitrary ())
    (fun d -> recipe_matches_naive (Plim_check.Gen.to_mig d))

let fast_recipe_random =
  QCheck.Test.make ~count:40
    ~name:"fast recipe = naive loop (Mig_gen graphs, efforts 0-8)" QCheck.small_int
    (fun seed ->
      let aig = Plim_benchgen.Frontend.expand (random_mig ~nodes:20 seed) in
      recipe_matches_naive (random_mig ~nodes:40 seed) && recipe_matches_naive aig)

(* pass by pass, on compact and non-compact inputs alike, without the
   recipe's final cleanup *)
let fast_pass_random =
  QCheck.Test.make ~count:60 ~name:"run_pass = naive rebuild, every rule set"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      List.for_all
        (fun g ->
          List.for_all
            (fun rules -> same_graph (Recipe.run_pass g rules) (naive_pass g rules))
            [ d_rl; i_rl; assoc; [ Axioms.complementary_associativity ];
              [ Axioms.associativity; Axioms.complementary_associativity ] ])
        [ g; Mig.cleanup g; Recipe.run_pass (Mig.cleanup g) i_rl ])

(* Suite circuits whose Alg. 2 cycles repeat: cavlc has period 2 and sqrt
   returns to its effort-2 graph at effort 4, so the recipe meets graphs
   on which it already ran the same passes.  Each effort must give
   [naive_recipe]'s graph; the naive cycles are run once and cleaned up
   at each effort. *)
let test_orbit_circuits () =
  List.iter
    (fun name ->
      let g = (Suite.find name).Suite.build () in
      let rec check effort naive =
        if effort <= 8 then begin
          check_bool (Printf.sprintf "%s effort %d = naive" name effort) true
            (same_graph (Recipe.run Recipe.Algorithm2 ~effort g) (Mig.cleanup naive));
          check (effort + 1) (naive_cycle Recipe.Algorithm2 naive)
        end
      in
      check 0 g)
    [ "cavlc"; "sqrt" ]

(* Ω.D is quiet on [g]: the inner nodes of <<xyu><xyv>z> are kept alive
   by outputs and <uvz> is absent.  Ω.I then flips <!u!v!z> into !<uvz>,
   after which Ω.D fires on the same node.  In Alg. 2 that is pass 1
   (Ω.D, quiet), pass 2 (Ω.I, rebuilds) and pass 7 (Ω.D, fires): a rule
   list found quiet must be scanned again once the graph is rebuilt. *)
let test_quiet_list_rescanned_after_rebuild () =
  let g = Mig.create () in
  let input = Mig.add_input g in
  let x = input "x" and y = input "y" and u = input "u" in
  let v = input "v" and z = input "z" in
  let a = Mig.maj g x y u and b = Mig.maj g x y v in
  Mig.add_output g "a" a;
  Mig.add_output g "b" b;
  Mig.add_output g "p" (Mig.maj g (Mig.not_ u) (Mig.not_ v) (Mig.not_ z));
  Mig.add_output g "f" (Mig.maj g a b z);
  check_bool "compact" true (Mig.is_compact g);
  check_bool "D quiet on g" true (Recipe.run_pass g d_rl == g);
  let g' = Recipe.run_pass g i_rl in
  check_bool "I rebuilds g" true (g' != g);
  let g'' = Recipe.run_pass g' d_rl in
  check_bool "D fires on the rebuilt graph" true (g'' != g');
  check_bool "the D rewrite reaches effort 1" false
    (same_graph (Recipe.run Recipe.Algorithm2 ~effort:1 g) (Mig.cleanup g'));
  List.iter
    (fun effort ->
      let r = Recipe.run Recipe.Algorithm2 ~effort g in
      check_bool (Printf.sprintf "effort %d = naive" effort) true
        (same_graph r (naive_recipe Recipe.Algorithm2 ~effort g));
      check_bool (Printf.sprintf "effort %d equivalent" effort) true
        (functionally_equal g r))
    [ 1; 2; 5 ]

(* --- allocation-free matching: the rules equal their list-based form ----- *)

(* The list-based decisions the rules had before they read children without
   allocating, kept as the reference: operands as records, views as tuples
   and lists, pairs tried through [List.find_map]. *)
module Reference = struct
  type operand = { s : Mig.signal; old_fanout : int }

  let operands a fa b fb c fc =
    [| { s = a; old_fanout = fa }; { s = b; old_fanout = fb }; { s = c; old_fanout = fc } |]

  let maj_view g s =
    match Mig.kind g (Mig.node_of s) with
    | Mig.Maj (x, y, z) ->
      if Mig.is_complemented s then Some (Mig.not_ x, Mig.not_ y, Mig.not_ z)
      else Some (x, y, z)
    | Mig.Const | Mig.Input _ -> None

  let pairs = [ (0, 1, 2); (0, 2, 1); (1, 2, 0) ]
  let seq = signal_equal

  let distributivity_rl g ~below a fa b fb c fc =
    let ops = operands a fa b fb c fc in
    let try_pair (i, j, k) =
      let pa = ops.(i) and pb = ops.(j) and z = ops.(k).s in
      match (maj_view g pa.s, maj_view g pb.s) with
      | Some (a1, a2, a3), Some (b1, b2, b3)
        when Mig.node_of pa.s <> Mig.node_of pb.s ->
        let la = [ a1; a2; a3 ] and lb = [ b1; b2; b3 ] in
        let common = List.filter (fun x -> List.exists (seq x) lb) la in
        (match common with
        | [ x; y ] ->
          let rest l = List.filter (fun s -> not (List.exists (seq s) common)) l in
          (match (rest la, rest lb) with
          | [ u ], [ v ] ->
            let free = Option.is_some (Mig.lookup ~below g u v z) in
            if free || (pa.old_fanout <= 1 && pb.old_fanout <= 1) then
              Some (fun () -> Mig.maj g x y (Mig.maj g u v z))
            else None
          | _, _ -> None)
        | _ -> None)
      | _, _ -> None
    in
    List.find_map try_pair pairs

  let associativity g ~below a fa b fb c fc =
    let ops = operands a fa b fb c fc in
    let try_inner (i, j, k) =
      let m = ops.(k).s and w1 = ops.(i).s and w2 = ops.(j).s in
      match maj_view g m with
      | None -> None
      | Some (m1, m2, m3) ->
        let inner = [ m1; m2; m3 ] in
        let try_shared u x =
          if not (List.exists (seq u) inner) then None
          else begin
            match List.filter (fun s -> not (seq s u)) inner with
            | [ t1; t2 ] ->
              let attempt t keep =
                match Mig.lookup ~below g keep u x with
                | Some inner' -> Some (fun () -> Mig.maj g t u inner')
                | None -> None
              in
              (match attempt t1 t2 with Some r -> Some r | None -> attempt t2 t1)
            | _ -> None
          end
        in
        (match try_shared w1 w2 with Some r -> Some r | None -> try_shared w2 w1)
    in
    List.find_map try_inner pairs

  let complementary_associativity g ~below a fa b fb c fc =
    let ops = operands a fa b fb c fc in
    let try_inner (i, j, k) =
      let m = ops.(k) and p = ops.(i).s and q = ops.(j).s in
      match maj_view g m.s with
      | None -> None
      | Some (m1, m2, m3) ->
        let inner = [ m1; m2; m3 ] in
        let try_outer p q =
          let np = Mig.not_ p in
          if not (List.exists (seq np) inner) then None
          else begin
            match List.filter (fun s -> not (seq s np)) inner with
            | [ k1; k2 ] ->
              let free = Option.is_some (Mig.lookup ~below g k1 k2 q) in
              if free || m.old_fanout <= 1 then
                Some (fun () -> Mig.maj g p q (Mig.maj g k1 k2 q))
              else None
            | _ -> None
          end
        in
        (match try_outer p q with Some r -> Some r | None -> try_outer q p)
    in
    List.find_map try_inner pairs
end

let rule_pairs : (string * Axioms.rule * Axioms.rule) list =
  [ ("distributivity", Axioms.distributivity_rl, Reference.distributivity_rl);
    ("associativity", Axioms.associativity, Reference.associativity);
    ("psi.C", Axioms.complementary_associativity, Reference.complementary_associativity) ]

(* [Mig.cleanup g] built by hash-consing (test_mig checks that the ids
   agree), so it keeps a strash for the rules' [Mig.lookup]. *)
let strashed_cleanup g = fst (Helpers.hashed_cleanup g)

(* At every majority node of a compact graph, with the dry scan's operands,
   each rule fires exactly when its reference does; when both fire, their
   commits, each run on its own fresh copy (same ids: the graph is
   compact), build the same signal and the same nodes. *)
let rules_match_reference g =
  let g = strashed_cleanup g in
  let fanout = Mig.fanout_counts g and out_refs = Mig.output_refs g in
  let old_fanout s =
    let id = Mig.node_of s in
    fanout.(id) + out_refs.(id)
  in
  let n = Mig.num_nodes g in
  let agree (rule : Axioms.rule) (reference : Axioms.rule) id below =
    match Mig.kind g id with
    | Mig.Const | Mig.Input _ -> true
    | Mig.Maj (a, b, c) ->
      let ask (r : Axioms.rule) g' =
        r g' ~below a (old_fanout a) b (old_fanout b) c (old_fanout c)
      in
      (match (ask rule g, ask reference g) with
      | None, None -> true
      | Some _, None | None, Some _ -> false
      | Some _, Some _ ->
        let g1 = strashed_cleanup g and g2 = strashed_cleanup g in
        (match (ask rule g1, ask reference g2) with
        | Some commit1, Some commit2 ->
          let s1 = commit1 () and s2 = commit2 () in
          signal_equal s1 s2
          && Mig.num_nodes g1 = Mig.num_nodes g2
          && List.for_all
               (fun id -> Mig.kind g1 id = Mig.kind g2 id)
               (List.init (Mig.num_nodes g1 - n) (fun k -> n + k))
        | _, _ -> false))
  in
  List.for_all
    (fun (_, rule, reference) ->
      List.for_all
        (fun id -> agree rule reference id id && agree rule reference id max_int)
        (List.init n Fun.id))
    rule_pairs

let rules_match_gen =
  QCheck.Test.make ~count:100 ~name:"rules = list-based reference (Gen graphs)"
    (Plim_check.Gen.arbitrary ())
    (fun d -> rules_match_reference (Plim_check.Gen.to_mig d))

(* Tops over three majority nodes of four inputs and the constant, each
   inner node mostly used once: operands sharing two children are common,
   so several operand pairs match at one top and the order they are tried
   in decides the commit. *)
let shared_children_mig seed =
  let rng = Random.State.make [| seed |] in
  let g = Mig.create () in
  let leaves =
    Array.append [| Mig.false_ |]
      (Array.init 4 (fun i -> Mig.add_input g (Printf.sprintf "x%d" i)))
  in
  let leaf () =
    let s = leaves.(Random.State.int rng 5) in
    if Random.State.int rng 4 = 0 then Mig.not_ s else s
  in
  let inner () = Mig.maj g (leaf ()) (leaf ()) (leaf ()) in
  for o = 0 to 7 do
    Mig.add_output g (Printf.sprintf "f%d" o) (Mig.maj g (inner ()) (inner ()) (inner ()))
  done;
  g

(* Few inputs and many nodes, as in [dense], also make shared children
   common. *)
let rules_match_random =
  QCheck.Test.make ~count:60 ~name:"rules = list-based reference (Mig_gen graphs)"
    QCheck.small_int (fun seed ->
      let dense =
        Mig_gen.random ~profile:Mig_gen.control_profile ~seed ~num_inputs:3 ~num_nodes:40
          ~num_outputs:4 ()
      in
      rules_match_reference (random_mig seed)
      && rules_match_reference dense
      && rules_match_reference
           (Plim_benchgen.Frontend.expand (random_mig ~nodes:20 seed)))

let rules_match_shared =
  QCheck.Test.make ~count:100 ~name:"rules = list-based reference (shared children)"
    QCheck.small_int (fun seed -> rules_match_reference (shared_children_mig seed))

let all_rules =
  [ Axioms.distributivity_rl; Axioms.associativity; Axioms.complementary_associativity;
    Axioms.inverter_propagation ]

(* nothing fires on a lone majority of inputs: the pass is skipped *)
let test_quiet_pass_returns_input () =
  let g = Mig.create () in
  let x = Mig.add_input g "x" in
  let y = Mig.add_input g "y" in
  let z = Mig.add_input g "z" in
  Mig.add_output g "f" (Mig.maj g x (Mig.not_ y) z);
  check_bool "compact" true (Mig.is_compact g);
  check_bool "run_pass returns its argument" true (Recipe.run_pass g all_rules == g);
  check_bool "run never returns its argument" false
    (Recipe.run Recipe.Algorithm2 ~effort:5 g == g);
  check_bool "run = naive" true
    (same_graph (Recipe.run Recipe.Algorithm2 ~effort:5 g)
       (naive_recipe Recipe.Algorithm2 ~effort:5 g))

(* [free] is built right after [top] when [late], right before it
   otherwise.  A rule whose only free lookup is [free] must not fire on
   [top] when [free] has the higher id (mid-rebuild, the new graph does not
   hold it yet), and must fire when [free] is the node just below [top]. *)
let check_lookup_prefix ~name ~rules build =
  let g, top_fires = (build ~late:true, build ~late:false) in
  check_bool (name ^ ": compact") true (Mig.is_compact g);
  check_bool (name ^ ": later node is not free, pass skipped") true
    (Recipe.run_pass g rules == g);
  check_bool (name ^ ": byte-equal to naive") true
    (same_graph (Recipe.run_pass g rules) (naive_pass g rules));
  let g' = Recipe.run_pass top_fires rules in
  check_bool (name ^ ": earlier node is free, pass rewrites") true (g' != top_fires);
  check_bool (name ^ ": fired pass byte-equal to naive") true
    (same_graph g' (naive_pass top_fires rules))

(* Ω.A on <x u <y u z>>: the only candidates are <z u x> (absent) and
   <y u x> *)
let test_associativity_higher_id () =
  check_lookup_prefix ~name:"assoc" ~rules:assoc (fun ~late ->
      let g = Mig.create () in
      let x = Mig.add_input g "x" in
      let u = Mig.add_input g "u" in
      let y = Mig.add_input g "y" in
      let z = Mig.add_input g "z" in
      let free () = Mig.add_output g "w" (Mig.maj g y u x) in
      let inner = Mig.maj g y u z in
      if not late then free ();
      Mig.add_output g "f" (Mig.maj g x u inner);
      if late then free ();
      g)

(* Ω.D on <<xyu><xyv>z> with both inner nodes kept alive by outputs: the
   only way to fire is a free <u v z> *)
let test_distributivity_higher_id () =
  check_lookup_prefix ~name:"distributivity" ~rules:d_rl (fun ~late ->
      let g = Mig.create () in
      let x = Mig.add_input g "x" in
      let y = Mig.add_input g "y" in
      let u = Mig.add_input g "u" in
      let v = Mig.add_input g "v" in
      let z = Mig.add_input g "z" in
      let free () = Mig.add_output g "w" (Mig.maj g u v z) in
      let a = Mig.maj g x y u in
      let b = Mig.maj g x y v in
      Mig.add_output g "a" a;
      Mig.add_output g "b" b;
      if not late then free ();
      Mig.add_output g "f" (Mig.maj g a b z);
      if late then free ();
      g)

(* a dead node, or an input declared after a majority node, makes the
   graph non-compact: the pass rebuilds and returns a compact graph *)
let test_non_compact_rebuilds () =
  let dead = Mig.create () in
  let x = Mig.add_input dead "x" in
  let y = Mig.add_input dead "y" in
  let z = Mig.add_input dead "z" in
  ignore (Mig.maj dead x y (Mig.not_ z));
  Mig.add_output dead "f" (Mig.maj dead x y z);
  let late_input = Mig.create () in
  let x = Mig.add_input late_input "x" in
  let y = Mig.add_input late_input "y" in
  let n = Mig.maj late_input x y Mig.true_ in
  let z = Mig.add_input late_input "z" in
  Mig.add_output late_input "f" (Mig.maj late_input n y z);
  List.iter
    (fun (name, g) ->
      check_bool (name ^ ": not compact") false (Mig.is_compact g);
      let g' = Recipe.run_pass g all_rules in
      check_bool (name ^ ": rebuilt") true (g' != g);
      check_bool (name ^ ": comes back compact") true (Mig.is_compact g');
      check_bool (name ^ ": byte-equal to naive") true
        (same_graph g' (naive_pass g all_rules));
      check_bool (name ^ ": equivalent") true (functionally_equal g g'))
    [ ("dead node", dead); ("late input", late_input) ]

(* --- allocation: rule decisions allocate nothing --------------------------- *)

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* On the small-suite circuits of at least 500 nodes, whose per-graph
   arrays (facts, rebuilt node arrays) are large enough to go straight to
   the major heap: a scan that fires nothing allocates next to nothing per
   node, and so does the whole recipe per source node.  Decisions that
   build a record per operand read about 9 and 65-150 words, so both
   bounds catch them. *)
let test_recipe_allocation () =
  List.iter
    (fun name ->
      let g = (Suite.find name).Suite.build () in
      let r, words = minor_words_of (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g) in
      let per_source_node = words /. float_of_int (Mig.num_nodes g) in
      if per_source_node >= 16. then
        Alcotest.failf "%s: Alg. 2 at effort 5 allocates %.1f minor words per source node (>= 16)"
          name per_source_node;
      let r', words = minor_words_of (fun () -> Recipe.run_pass r i_rl) in
      check_bool (name ^ ": Ω.I is quiet on the Alg. 2 output") true (r' == r);
      let per_node = words /. float_of_int (Mig.num_nodes r) in
      if per_node >= 1. then
        Alcotest.failf "%s: a quiet pass allocates %.2f minor words per node (>= 1)" name
          per_node)
    [ "div8"; "multiplier8"; "sqrt8"; "square8"; "rc_small" ]

(* Every word the recipe allocates, minor plus direct major, per source
   node, counted by [Helpers.total_words_of].  A rebuild into fresh
   arrays, and facts in fresh arrays per rebuilt graph, read 61-99 words
   per source node on these circuits; rebuilds into two targets the call
   reuses, with one scratch for the facts and the map, sized for the
   source graph and with a strash per target, read 38-44; the same
   storage allocated once with a quarter of headroom and one strash for
   both targets reads 23.7-26.5 with four word-sized arrays per node
   field, and 15.6-18.2 with one 12-byte record per node in a [Bytes.t];
   a result without a strash, built by appending records, reads
   14.3-17.4. *)
let test_recipe_total_words () =
  List.iter
    (fun name ->
      let g = (Suite.find name).Suite.build () in
      let _, words = Helpers.total_words_of (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g) in
      let per_source_node = words /. float_of_int (Mig.num_nodes g) in
      if per_source_node >= 20. then
        Alcotest.failf "%s: Alg. 2 at effort 5 allocates %.1f words per source node (>= 20)"
          name per_source_node)
    [ "div8"; "multiplier8"; "sqrt8"; "square8"; "rc_small" ]

(* [Recipe.run]'s rebuild storage belongs to one call: its result is the
   cleanup of the same passes run one by one through the public
   [run_pass], it never writes its input, and two calls return graphs that
   share no node array (the second call would overwrite the first's
   result otherwise).  AIG expansions make Ω.D grow the graph;
   [test_regrowth] grows it past the storage's headroom. *)
let run_pass_recipe recipe ~effort g =
  let rec go n g =
    if n <= 0 then g
    else go (n - 1) (List.fold_left (fun g rules -> Recipe.run_pass g rules) g (recipe_passes recipe))
  in
  Mig.cleanup (go effort g)

let recipe_owns_its_storage =
  QCheck.Test.make ~count:60
    ~name:"run = cleanup of run_pass cycles; input unchanged, results unshared"
    QCheck.(pair small_int (int_range 0 6))
    (fun (seed, effort) ->
      List.for_all
        (fun g ->
          let before = Mig_io.digest g in
          List.for_all
            (fun recipe ->
              let r1 = Recipe.run recipe ~effort g in
              let d1 = Mig_io.digest r1 in
              let r2 = Recipe.run recipe ~effort g in
              let unshared (a : Mig.t) (b : Mig.t) =
                a != b && a.nodes != b.nodes
              in
              String.equal d1 (Mig_io.digest (run_pass_recipe recipe ~effort g))
              && String.equal d1 (Mig_io.digest r2)
              && String.equal d1 (Mig_io.digest r1)
              && String.equal before (Mig_io.digest g)
              && unshared r1 r2 && unshared r1 g && unshared r2 g)
            [ Recipe.Algorithm1; Recipe.Algorithm2 ])
        [ random_mig ~nodes:60 seed;
          Plim_benchgen.Frontend.expand (random_mig ~nodes:30 seed) ])

(* A graph whose first Ω.D pass outgrows the rebuild storage [Recipe.run]
   sizes from its input (a quarter of headroom): 45 outputs <<xyu><xyv>z>
   over 24 inputs, whose inner nodes each have one parent and whose
   <uvz> are all distinct.  A firing output rebuilds as its two inner
   nodes, dead after the rewrite, plus <uvz> and <xy<uvz>>: four nodes for
   three. *)
let omega_d_growth_mig () =
  let k = 12 in
  let g = Mig.create () in
  let input prefix i = Mig.add_input g (Printf.sprintf "%s%d" prefix i) in
  let p = Array.init k (input "p") and q = Array.init k (input "q") in
  for x = 0 to k - 1 do
    for y = x + 1 to k - 3 do
      let inner w = Mig.maj g p.(x) p.(y) w in
      Mig.add_output g
        (Printf.sprintf "o%d_%d" x y)
        (Mig.maj g (inner p.(y + 1)) (inner (Mig.not_ p.(y + 2))) q.(x))
    done
  done;
  g

let test_regrowth () =
  let g = omega_d_growth_mig () in
  let before = Mig_io.digest g in
  let growth =
    float_of_int (Mig.num_nodes (Recipe.run_pass g d_rl)) /. float_of_int (Mig.num_nodes g)
  in
  if growth <= 1.25 then Alcotest.failf "the first Ω.D pass grows the graph only %.3fx" growth;
  List.iter
    (fun recipe ->
      let name = Recipe.recipe_name recipe in
      let r1 = Recipe.run recipe ~effort:5 g and r2 = Recipe.run recipe ~effort:5 g in
      check_bool (name ^ ": run = run_pass reference") true
        (String.equal (Mig_io.digest r1) (Mig_io.digest (run_pass_recipe recipe ~effort:5 g)));
      check_bool (name ^ ": two runs agree") true (same_graph r1 r2);
      check_bool (name ^ ": input unchanged") true (String.equal before (Mig_io.digest g));
      List.iter
        (fun (what, (a : Mig.t), (b : Mig.t)) ->
          check_bool (name ^ ": " ^ what ^ " share no node store") true (a.nodes != b.nodes);
          check_bool (name ^ ": " ^ what ^ " share no strash") true (a.strash != b.strash))
        [ ("results", r1, r2); ("result and input", r1, g) ])
    [ Recipe.Algorithm1; Recipe.Algorithm2 ]

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "rewrite"
    [ ( "soundness",
        [ qc distributivity_preserves;
          qc associativity_preserves;
          qc psi_c_preserves;
          qc inverter_preserves;
          qc all_rules_preserve;
          qc algorithm1_preserves;
          qc algorithm2_preserves ] );
      ( "invariants",
        [ qc inverter_invariant; qc never_grows ] );
      ( "converged",
        [ qc fast_recipe_gen;
          qc fast_recipe_random;
          qc fast_pass_random;
          Alcotest.test_case "quiet pass returns its input" `Quick
            test_quiet_pass_returns_input;
          Alcotest.test_case "assoc lookup above the node misses" `Quick
            test_associativity_higher_id;
          Alcotest.test_case "distributivity lookup above the node misses" `Quick
            test_distributivity_higher_id;
          Alcotest.test_case "non-compact input rebuilds" `Quick
            test_non_compact_rebuilds;
          Alcotest.test_case "quiet rule list rescanned after a rebuild" `Quick
            test_quiet_list_rescanned_after_rebuild;
          Alcotest.test_case "cavlc and sqrt orbits = naive loop" `Quick
            test_orbit_circuits ] );
      ( "matching",
        [ qc rules_match_gen; qc rules_match_random; qc rules_match_shared ] );
      ( "allocation",
        [ Alcotest.test_case "recipe and quiet pass allocate next to nothing" `Quick
            test_recipe_allocation;
          Alcotest.test_case "recipe allocates < 20 words per source node" `Quick
            test_recipe_total_words;
          qc recipe_owns_its_storage;
          Alcotest.test_case "storage outgrown by a first Ω.D pass" `Quick test_regrowth ] );
      ( "directed",
        [ Alcotest.test_case "distributivity collapse" `Quick test_distributivity_collapse;
          Alcotest.test_case "inverter flip" `Quick test_inverter_flip;
          Alcotest.test_case "psi.c removes complement" `Quick test_psi_c_removes_complement;
          Alcotest.test_case "associativity" `Quick test_associativity_directed;
          Alcotest.test_case "effort 0" `Quick test_effort_zero_is_cleanup;
          Alcotest.test_case "no rewriting" `Quick test_no_rewriting;
          Alcotest.test_case "recipe names" `Quick test_recipe_names;
          Alcotest.test_case "formal equivalence, 32-bit adder" `Quick
            test_formal_equivalence_wide;
          Alcotest.test_case "reduces adder (AIG form)" `Quick test_reduction_on_adder ] ) ]
