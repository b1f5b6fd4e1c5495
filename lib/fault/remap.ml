module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type t = {
  map : int array;              (* logical -> physical *)
  total : int;                  (* lines + spares *)
  mutable next_spare : int;
  mutable remaps : int;
  mutable retired : int list;
}

let m_remaps = Metrics.counter "fault.remaps"

let create ?(spares = 0) ~lines () =
  if lines < 0 then invalid_arg "Remap.create: negative lines";
  if spares < 0 then invalid_arg "Remap.create: negative spares";
  { map = Array.init lines (fun i -> i);
    total = lines + spares;
    next_spare = lines;
    remaps = 0;
    retired = [] }

let lines t = Array.length t.map

let num_physical t = t.total

let physical t l =
  if l < 0 || l >= Array.length t.map then
    invalid_arg (Printf.sprintf "Remap.physical: address %d out of range" l);
  t.map.(l)

let spares_left t = t.total - t.next_spare

let remaps t = t.remaps

let retire t l =
  let old = physical t l in
  if t.next_spare >= t.total then None
  else begin
    let fresh = t.next_spare in
    t.next_spare <- t.next_spare + 1;
    t.map.(l) <- fresh;
    t.remaps <- t.remaps + 1;
    t.retired <- old :: t.retired;
    Metrics.incr m_remaps;
    if Trace.enabled () then
      Trace.emit "fault.remap"
        ~args:[ ("logical", Int l); ("retired", Int old); ("spare", Int fresh) ];
    Some fresh
  end

let retired_cells t = t.retired
