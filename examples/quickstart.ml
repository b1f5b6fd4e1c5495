(* Quickstart: build a majority-inverter graph, compile it for the PLiM
   computer with full endurance management, inspect the program, run it on
   the RRAM crossbar machine, and verify it against the MIG semantics.

     dune exec examples/quickstart.exe *)

module Mig = Plim_mig.Mig
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Asm = Plim_isa.Asm
module Controller = Plim_machine.Plim_controller
module Stats = Plim_stats.Stats

let () =
  (* 1. describe a Boolean function as a MIG: a full adder *)
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  let cin = Mig.add_input g "cin" in
  let cout = Mig.maj g a b cin in
  let sum = Mig.xor g (Mig.xor g a b) cin in
  Mig.add_output g "sum" sum;
  Mig.add_output g "cout" cout;
  Printf.printf "MIG: %d inputs, %d outputs, %d majority nodes, depth %d\n\n"
    (Mig.num_inputs g) (Mig.num_outputs g) (Mig.size g) (Mig.depth g);

  (* 2. compile with the paper's full endurance management *)
  let result = Pipeline.compile Pipeline.endurance_full g in
  let program = result.Pipeline.program in
  Printf.printf "compiled with %s: %d RM3 instructions, %d RRAM devices\n"
    (Pipeline.config_name Pipeline.endurance_full)
    (Program.length program) (Program.num_cells program);
  Printf.printf "write traffic: %s\n\n"
    (Format.asprintf "%a" Stats.pp_summary result.Pipeline.write_summary);

  (* 3. look at the generated PLiM assembly *)
  print_string (Asm.to_string program);

  (* 4. execute on the behavioural RRAM crossbar *)
  let outputs, xbar, stats =
    (* one value per primary input, in the graph's input order (a, b, cin) *)
    Controller.run program ~inputs:[| true; false; true |]
  in
  Printf.printf "\nmachine run (a=1 b=0 cin=1): %s  [%d instructions, %d cycles]\n"
    (String.concat ", " (List.map (fun (n, v) -> Printf.sprintf "%s=%b" n v) outputs))
    stats.Controller.instructions stats.Controller.cycles;
  Printf.printf "per-cell write counts: %s\n"
    (String.concat " "
       (Array.to_list (Array.map string_of_int (Plim_rram.Crossbar.write_counts xbar))));

  (* 5. verify the program against the MIG on all 8 input vectors *)
  match Verify.check_exhaustive g program with
  | Ok () -> print_endline "exhaustive verification: OK"
  | Error e -> Printf.printf "verification FAILED: %s\n" e
