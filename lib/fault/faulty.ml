module Crossbar = Plim_rram.Crossbar
module Splitmix = Plim_util.Splitmix
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

(* stuck byte encoding: 0 healthy, 1 stuck at 0, 2 stuck at 1 *)
type t = {
  base : Crossbar.t;
  stuck : Bytes.t;
  spec : Fault_model.spec;
  rng : Splitmix.t;               (* transient draws only *)
  injected : int;
  mutable num_stuck : int;
  mutable transients : int;
}

let m_injected = Metrics.counter "fault.injected"
let m_worn_stuck = Metrics.counter "fault.worn_stuck"
let m_absorbed = Metrics.counter "fault.absorbed_writes"
let m_transient = Metrics.counter "fault.transient_failures"

let create ?(spec = Fault_model.none) ?(faults = []) base =
  let n = Crossbar.size base in
  let stuck = Bytes.make n '\000' in
  let mark (i, kind) =
    if i < 0 || i >= n then
      invalid_arg (Printf.sprintf "Faulty.create: fault index %d out of range" i);
    Bytes.set stuck i
      (match kind with Fault_model.Stuck_at_0 -> '\001' | Fault_model.Stuck_at_1 -> '\002')
  in
  List.iter mark faults;
  List.iter mark (Fault_model.sample_permanent spec ~cells:n);
  let injected = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr injected) stuck;
  Metrics.incr ~by:!injected m_injected;
  { base;
    stuck;
    spec;
    rng = Splitmix.create (spec.Fault_model.seed lxor 0x7F4A7C15);
    injected = !injected;
    num_stuck = !injected;
    transients = 0 }

let base t = t.base

let size t = Crossbar.size t.base

let stuck_at t i =
  match Bytes.get t.stuck i with
  | '\000' -> None
  | '\001' -> Some false
  | _ -> Some true

let read t i =
  match stuck_at t i with
  | Some v ->
    ignore (Crossbar.read t.base i);  (* the sense amp still fires *)
    v
  | None -> Crossbar.read t.base i

let mark_worn t i =
  if Bytes.get t.stuck i = '\000' then begin
    Bytes.set t.stuck i (if Crossbar.peek t.base i then '\002' else '\001');
    t.num_stuck <- t.num_stuck + 1;
    Metrics.incr m_worn_stuck;
    if Trace.enabled () then
      Trace.emit "fault.worn_stuck"
        ~args:[ ("cell", Int i); ("value", Bool (Crossbar.peek t.base i)) ]
  end

let absorb i =
  Metrics.incr m_absorbed;
  if Trace.enabled () then Trace.emit "fault.absorbed_write" ~args:[ ("cell", Int i) ]

let note_transient t i =
  t.transients <- t.transients + 1;
  Metrics.incr m_transient;
  if Trace.enabled () then Trace.emit "fault.transient" ~args:[ ("cell", Int i) ]

let write t i b =
  match stuck_at t i with
  | Some _ -> absorb i
  | None ->
    let writes = Crossbar.writes t.base i in
    if Fault_model.transient_fires t.spec ~writes t.rng then begin
      let prev = Crossbar.peek t.base i in
      if prev <> b then note_transient t i;
      (* the pulse wears the cell but the state does not switch *)
      Crossbar.write t.base i prev
    end
    else Crossbar.write t.base i b;
    if Crossbar.failed t.base i then mark_worn t i

let rm3 t ~p ~q i =
  match stuck_at t i with
  | Some _ -> absorb i
  | None ->
    let writes = Crossbar.writes t.base i in
    if Fault_model.transient_fires t.spec ~writes t.rng then begin
      let prev = Crossbar.peek t.base i in
      let intended = Plim_isa.Instruction.semantics ~a:p ~b:q ~z:prev in
      if prev <> intended then note_transient t i;
      Crossbar.write t.base i prev
    end
    else Crossbar.rm3 t.base ~p ~q i;
    if Crossbar.failed t.base i then mark_worn t i

let load t i b =
  match stuck_at t i with
  | Some _ -> absorb i
  | None ->
    (match Crossbar.load t.base i b with
    | () -> ()
    | exception Crossbar.Cell_failed _ ->
      (* the wrapped crossbar was already worn before wrapping *)
      mark_worn t i;
      absorb i)

let set_observer t obs = Crossbar.set_observer t.base obs

let wear_counts t = Crossbar.write_counts t.base

let injected t = t.injected

let worn_out t = t.num_stuck - t.injected

let transient_failures t = t.transients

let capacity t =
  let n = size t in
  if n = 0 then 1.0 else float_of_int (n - t.num_stuck) /. float_of_int n
