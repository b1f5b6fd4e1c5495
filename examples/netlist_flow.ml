(* A downstream-user flow: start from a BLIF netlist (the format the EPFL
   benchmarks ship in), compile it for PLiM, and size the deployment —
   memory footprint with the program stored in the array, energy per run,
   and expected lifetime on a real endurance budget.

     dune exec examples/netlist_flow.exe *)

module Mig = Plim_mig.Mig
module Blif = Plim_mig.Blif
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Encoding = Plim_isa.Encoding
module Energy = Plim_machine.Energy
module Campaign = Plim_machine.Campaign
module Controller = Plim_machine.Plim_controller
module Lifetime = Plim_stats.Lifetime

(* a 4-bit combinational ALU slice in plain BLIF: op selects between
   add-like (majority carry) and nand behaviour *)
let netlist =
  {blif|
.model alu_slice
.inputs op a0 a1 b0 b1
.outputs y0 y1 carry
# half adder on bit 0
.names a0 b0 s0
10 1
01 1
.names a0 b0 c0
11 1
# full adder on bit 1
.names a1 b1 c0 s1
100 1
010 1
001 1
111 1
.names a1 b1 c0 carry
11- 1
1-1 1
-11 1
# nand alternative
.names a0 b0 n0
11 0
.names a1 b1 n1
11 0
# op mux
.names op s0 n0 y0
11- 1
0-1 1
.names op s1 n1 y1
11- 1
0-1 1
.end
|blif}

let () =
  let g = match Blif.of_string netlist with Ok g -> g | Error e -> failwith e in
  Printf.printf "parsed BLIF: %d inputs, %d outputs, %d majority nodes\n\n"
    (Mig.num_inputs g) (Mig.num_outputs g) (Mig.size g);
  let r = Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g in
  let p = r.Pipeline.program in
  (match Verify.check_exhaustive g p with
  | Ok () -> print_endline "exhaustive verification against the netlist: OK"
  | Error e -> failwith e);
  Printf.printf "\nprogram        : %d RM3 instructions, %d devices\n" (Program.length p)
    (Program.num_cells p);
  Printf.printf "footprint      : %s\n"
    (Format.asprintf "%a" Encoding.pp_footprint (Encoding.footprint p));
  let inputs = Array.make (Array.length p.Program.pi_cells) true in
  let _, xbar, stats = Controller.run p ~inputs in
  Printf.printf "energy / run   : %s\n"
    (Format.asprintf "%a" Energy.pp_report (Energy.of_run xbar stats));
  let lt = Lifetime.estimate ~endurance:1e10 (Program.static_write_counts p) in
  Printf.printf "lifetime bound : %s\n" (Format.asprintf "%a" Lifetime.pp lt);
  let campaign = Campaign.run_until_failure ~endurance:5_000 ~max_executions:10_000 p in
  Printf.printf
    "wear-out check : %d executions on a 5000-write crossbar (%s)\n"
    campaign.Campaign.executions_completed
    (if campaign.Campaign.failed then "first device failed" else "budget never reached")
