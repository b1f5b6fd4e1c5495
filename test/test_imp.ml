module Mig = Plim_mig.Mig
module Mig_gen = Plim_mig.Mig_gen
module Imp = Plim_imp.Imp
module Alloc = Plim_core.Alloc
module Stats = Plim_stats.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- IMPLY compiler -------------------------------------------------- *)

let test_imp_gates () =
  (* AND / OR / NOT / MAJ through the IMP flow, exhaustively *)
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  let c = Mig.add_input g "c" in
  Mig.add_output g "and" (Mig.and_ g a b);
  Mig.add_output g "or" (Mig.or_ g a b);
  Mig.add_output g "not" (Mig.not_ a);
  Mig.add_output g "maj" (Mig.maj g a b c);
  let p = Imp.compile g in
  for m = 0 to 7 do
    let va = m land 1 = 1 and vb = m land 2 = 2 and vc = m land 4 = 4 in
    let outputs, _ = Imp.run p ~inputs:[| va; vb; vc |] in
    check_bool "and" (va && vb) (List.assoc "and" outputs);
    check_bool "or" (va || vb) (List.assoc "or" outputs);
    check_bool "not" (not va) (List.assoc "not" outputs);
    check_bool "maj" ((va && vb) || (va && vc) || (vb && vc)) (List.assoc "maj" outputs)
  done

let test_imp_nand_cost () =
  (* the canonical NAND: two devices beyond the inputs, three steps
     (Section II: "implemented with two resistive switches and ... three
     computational steps") — our AND = NAND + phase bookkeeping, so a
     single AND output costs 3 instructions + 2 for the final inversion *)
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  Mig.add_output g "nand" (Mig.not_ (Mig.and_ g a b));
  let p = Imp.compile g in
  check_int "three steps" 3 (Imp.length p);
  check_int "two inputs + one work device" 3 (Imp.num_cells p)

let test_imp_const_outputs () =
  let g = Mig.create () in
  let _ = Mig.add_input g "a" in
  Mig.add_output g "zero" Mig.false_;
  Mig.add_output g "one" Mig.true_;
  let p = Imp.compile g in
  let outputs, _ = Imp.run p ~inputs:[| true |] in
  check_bool "const 0" false (List.assoc "zero" outputs);
  check_bool "const 1" true (List.assoc "one" outputs)

(* Imp.run takes its vector like every RM3 executor: one value per
   input, by position *)
let test_imp_binding_errors () =
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  Mig.add_output g "y" (Mig.not_ a);
  let p = Imp.compile g in
  Alcotest.check_raises "empty" (Invalid_argument "Imp.run: 0 input values for 1 inputs")
    (fun () -> ignore (Imp.run p ~inputs:[||]));
  Alcotest.check_raises "long" (Invalid_argument "Imp.run: 2 input values for 1 inputs")
    (fun () -> ignore (Imp.run p ~inputs:[| true; false |]))

let imp_correct =
  QCheck.Test.make ~count:40 ~name:"IMP compilation is functionally correct"
    QCheck.small_int
    (fun seed ->
      let g = Mig_gen.random ~seed ~num_inputs:6 ~num_nodes:50 ~num_outputs:4 () in
      match Imp.check_random g (Imp.compile g) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

let imp_min_write_correct =
  QCheck.Test.make ~count:25 ~name:"IMP + min-write allocation stays correct"
    QCheck.small_int
    (fun seed ->
      let g = Mig_gen.random ~seed ~num_inputs:5 ~num_nodes:40 ~num_outputs:3 () in
      match
        Imp.check_random g (Imp.compile ~strategy:Alloc.Min_write g)
      with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

(* Section II's argument, quantitatively: on the same function, RM3
   compilation uses fewer instructions and balances writes better *)
let test_imp_vs_rm3 () =
  let g = Plim_benchgen.Arith.adder ~width:8 in
  let imp = Imp.compile g in
  let rm3 = (Plim_core.Pipeline.compile Plim_core.Pipeline.min_write g).Plim_core.Pipeline.program in
  let imp_stats = Stats.summarize (Imp.static_write_counts imp) in
  let rm3_stats = Stats.summarize (Plim_isa.Program.static_write_counts rm3) in
  check_bool "RM3 needs fewer instructions" true
    (Plim_isa.Program.length rm3 < Imp.length imp);
  check_bool "RM3 balances writes better" true
    (rm3_stats.Stats.stdev < imp_stats.Stats.stdev);
  check_bool "IMP concentrates on work devices" true
    (imp_stats.Stats.max > rm3_stats.Stats.max)

let test_imp_write_accounting () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let p = Imp.compile g in
  let inputs =
    Array.make (Array.length p.Imp.pi_cells) true
  in
  let _, xbar = Imp.run p ~inputs in
  Alcotest.(check (array int)) "dynamic = static" (Imp.static_write_counts p)
    (Plim_rram.Crossbar.write_counts xbar)

(* start-gap wear levelling tests live in test_rram.ml with the rest of
   the RRAM layer *)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "imp"
    [ ( "imply-compiler",
        [ Alcotest.test_case "gates (exhaustive)" `Quick test_imp_gates;
          Alcotest.test_case "NAND cost model" `Quick test_imp_nand_cost;
          Alcotest.test_case "constant outputs" `Quick test_imp_const_outputs;
          Alcotest.test_case "IMP vs RM3 (Section II)" `Quick test_imp_vs_rm3;
          Alcotest.test_case "write accounting" `Quick test_imp_write_accounting;
          Alcotest.test_case "input binding errors" `Quick test_imp_binding_errors;
          qc imp_correct;
          qc imp_min_write_correct ] ) ]
