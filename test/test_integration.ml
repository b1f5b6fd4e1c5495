(* End-to-end integration: generate -> (rewrite) -> compile -> execute on
   the crossbar machine -> compare against direct MIG evaluation, across
   the paper's configurations, on every circuit family of the suite. *)

module Mig = Plim_mig.Mig
module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats
module Lifetime = Plim_stats.Lifetime
module Controller = Plim_machine.Plim_controller
module Crossbar = Plim_rram.Crossbar

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let presets =
  [ Pipeline.naive;
    Pipeline.dac16;
    Pipeline.min_write;
    Pipeline.endurance_rewrite;
    Pipeline.endurance_full;
    Pipeline.with_cap 10 Pipeline.endurance_full ]

let test_small_suite_all_presets () =
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      List.iter
        (fun config ->
          let r = Pipeline.compile config g in
          match Verify.check_random ~trials:4 ~seed:0xF00 g r.Pipeline.program with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "%s under %s: %s" spec.Suite.name (Pipeline.config_name config) e)
        presets)
    Suite.small_suite

let test_cap_bounds_writes_on_suite () =
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      let r = Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g in
      let writes = Program.static_write_counts r.Pipeline.program in
      check_bool (spec.Suite.name ^ " cap respected") true
        (Array.for_all (fun w -> w <= 10) writes))
    Suite.small_suite

(* the headline claim, as a loose statistical property on small circuits:
   full endurance management beats the naive compiler on average *)
let test_stdev_improvement_direction () =
  let naive_total = ref 0.0 and full_total = ref 0.0 in
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      let sd config = (Pipeline.compile config g).Pipeline.write_summary.Stats.stdev in
      naive_total := !naive_total +. sd Pipeline.naive;
      full_total := !full_total +. sd Pipeline.endurance_full)
    Suite.small_suite;
  check_bool
    (Printf.sprintf "endurance-full %.1f < naive %.1f" !full_total !naive_total)
    true
    (!full_total < !naive_total)

(* Table-III direction: a tighter write cap costs devices but buys balance *)
let test_cap_tradeoff_direction () =
  let spec = Suite.find "sin" in
  let g = Recipe.run Recipe.Algorithm2 ~effort:2 (Suite.build_cached spec) in
  let at cap =
    let r = Pipeline.compile_rewritten (Pipeline.with_cap cap Pipeline.endurance_full) g in
    (Program.num_cells r.Pipeline.program, r.Pipeline.write_summary.Stats.stdev,
     r.Pipeline.write_summary.Stats.max)
  in
  let r10, sd10, mx10 = at 10 in
  let r100, sd100, mx100 = at 100 in
  check_bool "tighter cap uses more devices" true (r10 >= r100);
  check_bool "tighter cap balances better" true (sd10 <= sd100);
  check_bool "max bounded at 10" true (mx10 <= 10);
  check_bool "max bounded at 100" true (mx100 <= 100)

(* executing the compiled program on an endurance-limited crossbar:
   the balanced program must survive more executions *)
let test_lifetime_on_machine () =
  let spec = Suite.find "rc_small" in
  let g = spec.Suite.build () in
  let lifetime config =
    let r = Pipeline.compile config g in
    let writes = Program.static_write_counts r.Pipeline.program in
    (Lifetime.estimate ~endurance:1e10 writes).Lifetime.executions_to_first_failure
  in
  let naive = lifetime Pipeline.naive in
  let capped = lifetime (Pipeline.with_cap 10 Pipeline.endurance_full) in
  check_bool
    (Printf.sprintf "capped lifetime %.2e >= naive %.2e" capped naive)
    true (capped >= naive)

(* dynamic execution on a real endurance budget: the naive program kills a
   cell while the balanced one finishes *)
let test_wearout_execution () =
  let spec = Suite.find "div8" in
  let g = spec.Suite.build () in
  let naive = (Pipeline.compile Pipeline.naive g).Pipeline.program in
  let budget =
    (* pick a budget between the balanced and naive max write counts *)
    let balanced =
      (Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g).Pipeline.program
    in
    let naive_max = Array.fold_left max 0 (Program.static_write_counts naive) in
    let bal_max = Array.fold_left max 0 (Program.static_write_counts balanced) in
    check_bool "naive concentrates more writes" true (naive_max > bal_max);
    (naive_max + bal_max) / 2
  in
  let o = Plim_machine.Campaign.run_until_failure ~endurance:budget ~max_executions:1 naive in
  check_bool "naive wears out mid-run" true
    (o.Plim_machine.Campaign.failed && o.Plim_machine.Campaign.executions_completed = 0)

(* cross-check machine cycle accounting on a compiled program *)
let test_cycle_accounting () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let r = Pipeline.compile Pipeline.endurance_full g in
  let p = r.Pipeline.program in
  let inputs = Array.to_list (Array.map (fun (n, _) -> (n, true)) p.Program.pi_cells) in
  let _, xbar, stats = Controller.run p ~inputs in
  check_int "instructions executed" (Program.length p) stats.Controller.instructions;
  let reads =
    Array.fold_left
      (fun acc (i : Plim_isa.Instruction.t) ->
        let op = function Plim_isa.Instruction.Cell _ -> 1 | Plim_isa.Instruction.Const _ -> 0 in
        acc + op i.Plim_isa.Instruction.a + op i.Plim_isa.Instruction.b)
      0
      (Array.init (Program.length p) (Program.instr p))
  in
  check_int "cycles = reads + writes" (reads + Program.length p) stats.Controller.cycles;
  (* dynamic counts equal the static profile *)
  Alcotest.(check (array int)) "dynamic = static" (Program.static_write_counts p)
    (Crossbar.write_counts xbar)

(* assembly round-trip of a fully compiled benchmark still verifies *)
let test_asm_roundtrip_executes () =
  let g = Plim_benchgen.Arith.multiplier ~width:4 in
  let r = Pipeline.compile Pipeline.min_write g in
  match Plim_isa.Asm.of_string (Plim_isa.Asm.to_string r.Pipeline.program) with
  | Error e -> Alcotest.failf "reparse: %s" e
  | Ok p' -> (
    match Verify.check_random ~trials:8 g p' with
    | Ok () -> ()
    | Error e -> Alcotest.failf "roundtripped program: %s" e)

(* rewriting effort monotonicity: more effort never increases size *)
let test_effort_monotone () =
  let g = Plim_benchgen.Frontend.expand (Plim_benchgen.Arith.adder ~width:8) in
  let s1 = Mig.size (Recipe.run Recipe.Algorithm2 ~effort:1 g) in
  let s5 = Mig.size (Recipe.run Recipe.Algorithm2 ~effort:5 g) in
  check_bool "effort 5 <= effort 1 size" true (s5 <= s1)

let () =
  Alcotest.run "integration"
    [ ( "end-to-end",
        [ Alcotest.test_case "small suite x all presets" `Slow test_small_suite_all_presets;
          Alcotest.test_case "cap bounds writes" `Quick test_cap_bounds_writes_on_suite;
          Alcotest.test_case "stdev improvement direction" `Slow
            test_stdev_improvement_direction;
          Alcotest.test_case "cap trade-off direction" `Slow test_cap_tradeoff_direction;
          Alcotest.test_case "lifetime estimate" `Quick test_lifetime_on_machine;
          Alcotest.test_case "wear-out during execution" `Quick test_wearout_execution;
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
          Alcotest.test_case "assembly roundtrip executes" `Quick test_asm_roundtrip_executes;
          Alcotest.test_case "rewriting effort monotone" `Quick test_effort_monotone ] ) ]
