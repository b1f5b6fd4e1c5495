module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type t = {
  state : Bytes.t;                 (* 1 = LRS/logic 1 *)
  writes : int array;
  transitions : int array;
  failed : Bytes.t;
  endurance : int option;
  mutable observer : (cell:int -> writes:int -> unit) option;
}

exception Cell_failed of int

let m_writes = Metrics.counter "crossbar.writes"
let m_reads = Metrics.counter "crossbar.reads"
let m_loads = Metrics.counter "crossbar.loads"
let m_failures = Metrics.counter "crossbar.cell_failures"

let create ?endurance n =
  if n < 0 then invalid_arg "Crossbar.create: negative size";
  { state = Bytes.make n '\000';
    writes = Array.make n 0;
    transitions = Array.make n 0;
    failed = Bytes.make n '\000';
    endurance;
    observer = None }

let set_observer t obs = t.observer <- obs

let size t = Array.length t.writes

let check t i =
  if i < 0 || i >= size t then
    invalid_arg (Printf.sprintf "Crossbar: cell %d out of range (size %d)" i (size t))

let get t i = Bytes.get t.state i <> '\000'

let read t i =
  check t i;
  Metrics.incr m_reads;
  get t i

let failed t i =
  check t i;
  Bytes.get t.failed i <> '\000'

let set_state t i b = Bytes.set t.state i (if b then '\001' else '\000')

let peek t i =
  check t i;
  get t i

let apply_write t i b =
  check t i;
  if Bytes.get t.failed i <> '\000' then raise (Cell_failed i);
  t.writes.(i) <- t.writes.(i) + 1;
  Metrics.incr m_writes;
  (match t.observer with
   | Some f -> f ~cell:i ~writes:t.writes.(i)
   | None -> ());
  if get t i <> b then t.transitions.(i) <- t.transitions.(i) + 1;
  set_state t i b;
  if Trace.enabled () then
    Trace.emit "crossbar.write"
      ~args:[ ("cell", Int i); ("value", Bool b); ("writes", Int t.writes.(i)) ];
  match t.endurance with
  | Some budget when t.writes.(i) >= budget ->
    Bytes.set t.failed i '\001';
    Metrics.incr m_failures;
    if Trace.enabled () then
      Trace.emit "crossbar.fail" ~args:[ ("cell", Int i); ("writes", Int t.writes.(i)) ]
  | Some _ | None -> ()

let write t i b = apply_write t i b

let rm3 t ~p ~q i =
  check t i;
  let z = get t i in
  let nq = not q in
  let result = (p && nq) || (p && z) || (nq && z) in
  apply_write t i result

let load t i b =
  check t i;
  if Bytes.get t.failed i <> '\000' then raise (Cell_failed i);
  Metrics.incr m_loads;
  set_state t i b

let writes t i =
  check t i;
  t.writes.(i)

let write_counts t = Array.copy t.writes

let total_writes t = Array.fold_left ( + ) 0 t.writes

let transition_counts t = Array.copy t.transitions
