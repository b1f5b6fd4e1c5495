module Crossbar = Plim_rram.Crossbar
module Program = Plim_isa.Program
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics

let m_runs = Metrics.counter "machine.runs"
let m_instructions = Metrics.counter "machine.instructions"

type run_stats = {
  instructions : int;
  cycles : int;
}

type trace_entry = {
  pc : int;
  b_value : bool;
  z_after : bool;
}

(* The fields of packed word [w] (Program's layout): the destination
   cell and the two operand codes, 0/1 for a constant, cell + 2. *)
let dest w = w land Program.field_mask
let code_a w = (w lsr Program.field_bits) land Program.field_mask
let code_b w = w lsr (2 * Program.field_bits)

let static_cycles (p : Program.t) =
  let cycles = ref 0 in
  for i = 0 to Program.length p - 1 do
    let w = p.Program.code.(i) in
    cycles := !cycles + 1 + Bool.to_int (code_a w >= 2) + Bool.to_int (code_b w >= 2)
  done;
  !cycles

(* Power-on shared by the controllers: a fresh [num_cells]-cell array with
   the input vector loaded (uncounted), a cycle counter, and the operand
   read that charges it one cycle per access. *)
let power_on ~caller (p : Program.t) inputs =
  Program.check_inputs ~caller p.Program.pi_cells inputs;
  Metrics.incr m_runs;
  Metrics.incr ~by:(Program.length p) m_instructions;
  let xbar = Crossbar.create p.Program.num_cells in
  Array.iteri (fun i (_, cell) -> Crossbar.load xbar cell inputs.(i)) p.Program.pi_cells;
  let cycles = ref 0 in
  let read i =
    incr cycles;
    Crossbar.read xbar i
  in
  (xbar, cycles, read)

(* An operand code's value: a constant as applied, a cell through [read]. *)
let operand read c = if c < 2 then c = 1 else read (c - 2)

let run ?on_step (p : Program.t) ~inputs =
  Profile.span "machine.run" @@ fun () ->
  let xbar, cycles, read = power_on ~caller:"Plim_controller.run" p inputs in
  (* controller on: execute the stream *)
  let code = p.Program.code in
  for pc = 0 to Array.length code - 1 do
    let w = code.(pc) in
    let a = operand read (code_a w) in
    let b = operand read (code_b w) in
    let z = dest w in
    incr cycles;
    match on_step with
    | None -> Crossbar.rm3 xbar ~p:a ~q:b z
    | Some f ->
      Crossbar.rm3 xbar ~p:a ~q:b z;
      (* observation only: the RM3 senses Z itself, so no read is counted *)
      f { pc; b_value = b; z_after = Crossbar.peek xbar z }
  done;
  let outputs = Program.read_outputs p.Program.po_cells (Crossbar.read xbar) in
  (outputs, xbar, { instructions = Array.length code; cycles = !cycles })

(* ------------------------------------------------------------------ *)
(* Geometry backend: execute a row-parallel schedule (Plim_geometry)
   group by group.  Within a group every member's operands and
   destination state are read BEFORE any member's write lands — the
   semantics of simultaneously firing several write drivers in one row.
   Group members are mutually hazard-free by construction, so the
   outputs are identical to [run]; only the latency changes: one group
   costs one array step regardless of its width ([static_groups]). *)

let static_groups ~geometry (p : Program.t) =
  Result.map Plim_geometry.num_groups (Plim_geometry.schedule geometry p)

let run_grouped ~geometry (p : Program.t) ~inputs =
  Profile.span "machine.run_grouped" @@ fun () ->
  match Plim_geometry.schedule geometry p with
  | Error msg -> Error msg
  | Ok sched ->
    let xbar, cycles, read = power_on ~caller:"Plim_controller.run_grouped" p inputs in
    let code = p.Program.code in
    (* one group's operand values, captured before any of its writes *)
    let width = Plim_geometry.max_group_size sched in
    let pv = Array.make width false and qv = Array.make width false in
    Array.iter
      (fun group ->
        (* read phase: capture every member's operand and destination
           state before any write of the group lands *)
        for k = 0 to Array.length group - 1 do
          let w = code.(group.(k)) in
          pv.(k) <- operand read (code_a w);
          qv.(k) <- operand read (code_b w);
          incr cycles
        done;
        (* write phase: fire the group's RM3s *)
        for k = 0 to Array.length group - 1 do
          Crossbar.rm3 xbar ~p:pv.(k) ~q:qv.(k) (dest code.(group.(k)))
        done)
      sched.Plim_geometry.s_groups;
    let outputs = Program.read_outputs p.Program.po_cells (Crossbar.read xbar) in
    Ok (outputs, xbar, { instructions = Array.length code; cycles = !cycles })
