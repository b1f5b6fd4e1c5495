module Crossbar = Plim_rram.Crossbar

let read_pj = 1.0
let switch_write_pj = 10.0
let hold_write_pj = 2.0

type report = {
  reads : int;
  writes : int;
  transitions : int;
  total_pj : float;
  per_instruction_pj : float;
}

let of_run xbar (stats : Plim_controller.run_stats) =
  let writes = Array.fold_left ( + ) 0 (Crossbar.write_counts xbar) in
  let transitions = Array.fold_left ( + ) 0 (Crossbar.transition_counts xbar) in
  (* every memory-access cycle that is not a write is an operand read *)
  let reads = stats.Plim_controller.cycles - stats.Plim_controller.instructions in
  let total_pj =
    (float_of_int reads *. read_pj)
    +. (float_of_int transitions *. switch_write_pj)
    +. (float_of_int (writes - transitions) *. hold_write_pj)
  in
  { reads;
    writes;
    transitions;
    total_pj;
    per_instruction_pj =
      (if stats.Plim_controller.instructions = 0 then 0.0
       else total_pj /. float_of_int stats.Plim_controller.instructions) }

let pp_report ppf r =
  Format.fprintf ppf "reads=%d writes=%d (switching %d) energy=%.1f pJ (%.2f pJ/instr)"
    r.reads r.writes r.transitions r.total_pj r.per_instruction_pj
