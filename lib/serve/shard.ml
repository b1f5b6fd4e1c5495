module Crossbar = Plim_rram.Crossbar
module Fault_model = Plim_fault.Fault_model
module Faulty = Plim_fault.Faulty
module Remap = Plim_fault.Remap
module Exec = Plim_fault.Exec
module Program = Plim_isa.Program

type status = Spare | Active | Retired

type t = {
  id : int;
  lines : int;
  faulty : Faulty.t;
  remap : Remap.t;
  mutable status : status;
  mutable stats : Exec.stats;
}

let fault_spec (spec : Fault_model.spec) ~id =
  { spec with Fault_model.seed = Plim_util.Splitmix.derive spec.Fault_model.seed id }

let create ?endurance ?geometry ?(spec = Fault_model.none) ?(status = Active) ~id
    ~lines ~spares () =
  if lines <= 0 then invalid_arg "Shard.create: need at least one line";
  if spares < 0 then invalid_arg "Shard.create: negative spare count";
  (match geometry with
  | Some g when not (Plim_geometry.fits g ~num_cells:lines) ->
    invalid_arg
      (Printf.sprintf "Shard.create: %d lines exceed grid %s (area %d)" lines
         (Plim_geometry.to_string g) (Plim_geometry.area g))
  | _ -> ());
  let xbar = Crossbar.create ?endurance (lines + spares) in
  let faulty = Faulty.create ~spec xbar in
  let remap = Remap.create ~spares ~lines () in
  { id; lines; faulty; remap; status; stats = Exec.zero_stats }

let id t = t.id
let lines t = t.lines
let status t = t.status
let set_status t s = t.status <- s

let status_name = function
  | Spare -> "spare"
  | Active -> "active"
  | Retired -> "retired"

let execute ~verify t p ~inputs =
  if Program.num_cells p > t.lines then
    invalid_arg
      (Printf.sprintf "Shard.execute: program needs %d cells, shard %d has %d"
         (Program.num_cells p) t.id t.lines);
  let outcome, stats = Exec.run ~verify t.faulty t.remap p ~inputs in
  t.stats <- Exec.add_stats t.stats stats;
  (outcome, stats)

let stats t = t.stats
let wear_counts t = Faulty.wear_counts t.faulty
let total_writes t = Crossbar.total_writes (Faulty.base t.faulty)
