module I = Plim_isa.Instruction
module Program = Plim_isa.Program
module Controller = Plim_machine.Plim_controller
module Crossbar = Plim_rram.Crossbar

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* the NOT / COPY / MAJ3 micro-programs live in Helpers, shared with the
   fault and lifetime suites *)
let not_program = Helpers.not_program
let copy_program = Helpers.copy_program
let maj_program = Helpers.maj_program

let test_not () =
  List.iter
    (fun v ->
      let outputs, _, _ = Controller.run (not_program ()) ~inputs:[| v |] in
      check_bool "not" (not v) (List.assoc "y" outputs))
    [ false; true ]

let test_copy () =
  List.iter
    (fun v ->
      let outputs, _, _ = Controller.run (copy_program ()) ~inputs:[| v |] in
      check_bool "copy" v (List.assoc "y" outputs))
    [ false; true ]

let test_maj () =
  for m = 0 to 7 do
    let a = m land 1 = 1 and b = m land 2 = 2 and c = m land 4 = 4 in
    let outputs, _, _ =
      Controller.run (maj_program ()) ~inputs:[| a; b; c |]
    in
    check_bool
      (Printf.sprintf "maj %b %b %b" a b c)
      ((a && b) || (a && c) || (b && c))
      (List.assoc "y" outputs)
  done

let test_stats () =
  let _, xbar, stats = Controller.run (maj_program ()) ~inputs:[| true; false; true |] in
  check_int "instructions" 3 stats.Controller.instructions;
  (* cycles: set_const (1 write), not (1 read + 1 write), rm3 (2 reads + 1 write) *)
  check_int "cycles" 6 stats.Controller.cycles;
  check_int "temp writes" 2 (Crossbar.writes xbar 3);
  check_int "dest writes" 1 (Crossbar.writes xbar 2);
  check_int "pi cell writes uncounted" 0 (Crossbar.writes xbar 0)

(* static_cycles is the serve layer's latency model: it must equal the
   cycles the controller actually charges, for any program and any
   inputs (the cycle count is input-independent). *)
let test_static_cycles_matches_run () =
  let progs =
    [ ("not", not_program (), [ [| false |]; [| true |] ]);
      ("copy", copy_program (), [ [| false |]; [| true |] ]);
      ("maj", maj_program (), [ [| false; true; true |]; [| true; true; false |] ]) ]
  in
  List.iter
    (fun (name, p, input_sets) ->
      List.iter
        (fun inputs ->
          let _, _, stats = Controller.run p ~inputs in
          check_int
            (Printf.sprintf "%s: static_cycles = run cycles" name)
            (Controller.static_cycles p)
            stats.Controller.cycles)
        input_sets)
    progs

let test_trace () =
  let entries = ref [] in
  let _ =
    Controller.run (not_program ()) ~on_step:(fun e -> entries := e :: !entries)
      ~inputs:[| true |]
  in
  let entries = List.rev !entries in
  check_int "two steps" 2 (List.length entries);
  (match entries with
  | [ first; second ] ->
    check_int "pc 0" 0 first.Controller.pc;
    check_bool "z after set" true first.Controller.z_after;
    check_bool "b read" true second.Controller.b_value;
    check_bool "final !a" false second.Controller.z_after
  | _ -> Alcotest.fail "expected 2 entries")

let test_input_binding_errors () =
  let p = not_program () in
  Alcotest.check_raises "empty"
    (Invalid_argument "Plim_controller.run: 0 input values for 1 inputs") (fun () ->
      ignore (Controller.run p ~inputs:[||]));
  Alcotest.check_raises "long"
    (Invalid_argument "Plim_controller.run: 2 input values for 1 inputs") (fun () ->
      ignore (Controller.run p ~inputs:[| true; false |]))

(* value [i] goes to the cell of [pi_cells.(i)], whatever the cell order *)
let test_run_positional () =
  let p =
    Program.make ~instrs:[||] ~num_cells:2 ~pi_cells:[| ("x", 1); ("y", 0) |]
      ~po_cells:[| ("ox", 1); ("oy", 0) |]
  in
  let run values =
    let outputs, _, _ = Controller.run p ~inputs:values in
    outputs
  in
  Alcotest.(check (list (pair string bool)))
    "x then y" [ ("ox", true); ("oy", false) ] (run [| true; false |]);
  Alcotest.(check (list (pair string bool)))
    "swapped" [ ("ox", false); ("oy", true) ] (run [| false; true |])

let test_endurance_mid_run () =
  (* a 2-write program against a 1-write budget must fail *)
  let o =
    Plim_machine.Campaign.run_until_failure ~endurance:1 ~max_executions:1 (not_program ())
  in
  check_bool "wear-out" true
    (o.Plim_machine.Campaign.failed && o.Plim_machine.Campaign.executions_completed = 0)

(* --- energy model --------------------------------------------------------- *)

module Energy = Plim_machine.Energy

let test_energy_accounting () =
  let _, xbar, stats =
    Controller.run (maj_program ()) ~inputs:[| true; false; true |]
  in
  let r = Energy.of_run xbar stats in
  check_int "reads" (stats.Controller.cycles - stats.Controller.instructions) r.Energy.reads;
  check_int "writes" 3 r.Energy.writes;
  check_bool "transitions <= writes" true (r.Energy.transitions <= r.Energy.writes);
  (* 1 pJ a read, 10 pJ a switching write, 2 pJ a write that holds *)
  let expected =
    float_of_int r.Energy.reads
    +. (float_of_int r.Energy.transitions *. 10.0)
    +. float_of_int (r.Energy.writes - r.Energy.transitions) *. 2.0
  in
  Alcotest.(check (float 1e-9)) "total" expected r.Energy.total_pj;
  check_bool "per-instruction positive" true (r.Energy.per_instruction_pj > 0.0)

(* --- endurance campaigns --------------------------------------------------- *)

module Campaign = Plim_machine.Campaign

let campaign_program () =
  (* every execution writes cell 1 twice (NOT program) *)
  not_program ()

let test_campaign_until_failure () =
  let p = campaign_program () in
  let o = Campaign.run_until_failure ~endurance:20 p in
  check_bool "fails" true o.Campaign.failed;
  (* cell 1 takes 2 writes per run: the budget of 20 writes admits exactly
     10 complete executions; the 11th touches the failed cell *)
  check_int "executions before failure" 10 o.Campaign.executions_completed

let test_campaign_max_executions () =
  let p = campaign_program () in
  let o = Campaign.run_until_failure ~endurance:1000 ~max_executions:50 p in
  check_bool "survives" false o.Campaign.failed;
  check_int "all executions" 50 o.Campaign.executions_completed

let test_campaign_matches_static_estimate () =
  let p = Helpers.adder4_program () in
  let endurance = 500 in
  let o = Campaign.run_until_failure ~endurance p in
  let max_writes =
    Array.fold_left max 1 (Program.static_write_counts p)
  in
  let predicted = endurance / max_writes in
  check_bool
    (Printf.sprintf "measured %d ~ predicted %d" o.Campaign.executions_completed predicted)
    true
    (o.Campaign.failed && abs (o.Campaign.executions_completed - predicted) <= 1)

(* --- graceful degradation ---------------------------------------------------- *)

(* with no faults and no endurance limit the degraded campaign is the
   flat executor run again and again: every execution matches the MIG
   oracle, nothing is detected or remapped, the spares stay unused and
   each cell wears by its static write count per execution *)
let test_degraded_fault_free () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let p = Helpers.adder4_program () in
  let executions = 40 and spares = 2 in
  let d =
    Campaign.run_degraded ~max_executions:executions ~spares ~oracle:(Plim_mig.Mig.eval g) p
  in
  check_bool "ran to the limit" true (d.Campaign.ended = Campaign.Max_executions);
  check_int "executions" executions d.Campaign.executions;
  check_int "correct" executions d.Campaign.correct;
  check_int "incorrect" 0 d.Campaign.incorrect;
  check_int "detections" 0 d.Campaign.detections;
  check_int "remaps" 0 d.Campaign.remaps;
  check_int "spares left" spares d.Campaign.spares_remaining;
  Alcotest.(check (float 0.0)) "capacity" 1.0 d.Campaign.final_capacity;
  let per_run = Program.static_write_counts p in
  Alcotest.(check (array int)) "wear"
    (Array.append (Array.map (fun w -> executions * w) per_run) (Array.make spares 0))
    d.Campaign.final_wear

(* --- one executor interface ------------------------------------------------ *)

module Pipeline = Plim_core.Pipeline
module Exec = Plim_fault.Exec
module Faulty = Plim_fault.Faulty
module Remap = Plim_fault.Remap
module Metrics = Plim_obs.Metrics

let grid rows cols = Plim_geometry.make_exn ~rows ~cols

(* fault-free [Exec.run] through an identity remap: outputs and the
   per-cell write counts of the program's cells *)
let exec_fault_free ?(verify = false) p ~inputs =
  let n = Program.num_cells p in
  let fx = Faulty.create (Crossbar.create n) in
  match Exec.run ~verify fx (Remap.create ~lines:n ()) p ~inputs with
  | Exec.Completed outputs, _ -> (outputs, Crossbar.write_counts (Faulty.base fx))
  | Exec.Out_of_spares l, _ -> Alcotest.failf "fault-free run out of spares at %d" l

let grouped_exn ~geometry p ~inputs =
  match Controller.run_grouped ~geometry p ~inputs with
  | Ok (outputs, xbar, _) -> (outputs, xbar)
  | Error e -> Alcotest.failf "run_grouped %s: %s" (Plim_geometry.to_string geometry) e

(* the crossbar.reads / crossbar.writes deltas of one execution *)
let counter_deltas f =
  let reads = Metrics.get "crossbar.reads" and writes = Metrics.get "crossbar.writes" in
  f ();
  (Metrics.get "crossbar.reads" - reads, Metrics.get "crossbar.writes" - writes)

let test_executors_count_alike () =
  let g = Plim_benchgen.Suite.(build_cached (find "adder8")) in
  let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
  let inputs = Array.make (Array.length p.Program.pi_cells) true in
  let flat = counter_deltas (fun () -> ignore (Controller.run p ~inputs)) in
  let grouped =
    counter_deltas (fun () -> ignore (grouped_exn ~geometry:(grid 64 1) p ~inputs))
  in
  let exec = counter_deltas (fun () -> ignore (exec_fault_free p ~inputs)) in
  let pair = Alcotest.(pair int int) in
  (* one read per cell operand plus one per output; one write per RM3 *)
  let expected =
    ( Controller.static_cycles p - Program.length p + Array.length p.Program.po_cells,
      Program.length p )
  in
  Alcotest.check pair "flat run" expected flat;
  Alcotest.check pair "grouped run" expected grouped;
  Alcotest.check pair "fault-free Exec.run" expected exec

(* every RM3 executor computes the same outputs and the same wear on the
   program's cells *)
let executors_agree =
  QCheck.Test.make ~count:60 ~name:"every executor: same outputs, same data-cell wear"
    QCheck.(pair (Plim_check.Gen.arbitrary ~max_inputs:5 ~max_nodes:16 ()) int)
    (fun (desc, seed) ->
      let g = Plim_check.Gen.to_mig desc in
      let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
      let n = Program.num_cells p in
      let inputs =
        Plim_util.Splitmix.bits (Plim_util.Splitmix.create seed)
          ~width:(Array.length p.Program.pi_cells)
      in
      let data xbar = Array.sub (Crossbar.write_counts xbar) 0 n in
      let reference, xbar, _ = Controller.run p ~inputs in
      let wear = data xbar in
      let agrees name (outputs, counts) =
        if outputs <> reference then QCheck.Test.fail_reportf "%s: outputs differ" name;
        if Array.sub counts 0 n <> wear then
          QCheck.Test.fail_reportf "%s: data-cell wear differs" name;
        true
      in
      let grouped geometry =
        let outputs, xbar = grouped_exn ~geometry p ~inputs in
        (outputs, Crossbar.write_counts xbar)
      in
      agrees "run_grouped 64x1" (grouped (grid 64 1))
      && agrees "run_grouped 8x16" (grouped (grid 8 16))
      && agrees "Exec.run" (exec_fault_free p ~inputs)
      && agrees "Exec.run ~verify" (exec_fault_free ~verify:true p ~inputs))

(* the wrong-length vectors of the grouped controller, of fault-tolerant
   execution and of a serve shard.  A failed Exec.run check touches no
   cell and no spare: cell 0 is stuck at 1, so a scrub under
   write-verify would retire it. *)
let test_binding_error_table () =
  let p = not_program () in
  let cases =
    [ ("empty", [||], "0 input values for 1 inputs");
      ("long", [| true; false |], "2 input values for 1 inputs") ]
  in
  List.iter
    (fun (what, inputs, msg) ->
      Alcotest.check_raises ("run_grouped " ^ what)
        (Invalid_argument ("Plim_controller.run_grouped: " ^ msg))
        (fun () -> ignore (Controller.run_grouped ~geometry:(grid 2 1) p ~inputs));
      let xbar = Crossbar.create 4 in
      let fx = Faulty.create ~faults:[ (0, Plim_fault.Fault_model.Stuck_at_1) ] xbar in
      let rm = Remap.create ~spares:2 ~lines:2 () in
      Alcotest.check_raises ("Exec.run " ^ what) (Invalid_argument ("Exec.run: " ^ msg))
        (fun () -> ignore (Exec.run ~verify:true fx rm p ~inputs));
      Alcotest.(check (array int)) (what ^ ": no wear") [| 0; 0; 0; 0 |]
        (Crossbar.write_counts xbar);
      check_int (what ^ ": spares untouched") 2 (Remap.spares_left rm);
      let shard = Plim_serve.Shard.create ~id:0 ~lines:2 ~spares:2 () in
      Alcotest.check_raises ("Shard.execute " ^ what)
        (Invalid_argument ("Exec.run: " ^ msg))
        (fun () -> ignore (Plim_serve.Shard.execute ~verify:true shard p ~inputs));
      check_int (what ^ ": shard wear") 0 (Plim_serve.Shard.total_writes shard))
    cases

let () =
  Alcotest.run "machine"
    [ ( "controller",
        [ Alcotest.test_case "NOT program" `Quick test_not;
          Alcotest.test_case "COPY program" `Quick test_copy;
          Alcotest.test_case "MAJ program (exhaustive)" `Quick test_maj;
          Alcotest.test_case "run stats" `Quick test_stats;
          Alcotest.test_case "static cycle model matches run" `Quick
            test_static_cycles_matches_run;
          Alcotest.test_case "trace callback" `Quick test_trace;
          Alcotest.test_case "input binding errors" `Quick test_input_binding_errors;
          Alcotest.test_case "run on positional inputs" `Quick test_run_positional;
          Alcotest.test_case "endurance mid-run" `Quick test_endurance_mid_run ] );
      ( "energy",
        [ Alcotest.test_case "accounting" `Quick test_energy_accounting ] );
      ( "executors",
        [ Alcotest.test_case "same read and write counts" `Quick
            test_executors_count_alike;
          QCheck_alcotest.to_alcotest executors_agree;
          Alcotest.test_case "binding error table" `Quick test_binding_error_table ] );
      ( "campaign",
        [ Alcotest.test_case "until failure" `Quick test_campaign_until_failure;
          Alcotest.test_case "max executions" `Quick test_campaign_max_executions;
          Alcotest.test_case "matches static estimate" `Quick
            test_campaign_matches_static_estimate ] );
      ( "degradation",
        [ Alcotest.test_case "fault-free campaign" `Quick test_degraded_fault_free ] ) ]
