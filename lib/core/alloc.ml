module Vec = Plim_util.Vec
module Lazy_heap = Plim_util.Lazy_heap
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type strategy = Lifo | Fifo | Min_write

let m_requests = Metrics.counter "alloc.requests"
let m_pool_hits = Metrics.counter "alloc.pool_hits"
let m_fresh = Metrics.counter "alloc.fresh_cells"
let m_released = Metrics.counter "alloc.released"
let m_retired = Metrics.counter "alloc.retired_cells"
let m_writes = Metrics.counter "alloc.writes"
let m_faulty_skipped = Metrics.counter "alloc.faulty_skipped"

type t = {
  strategy : strategy;
  max_write : int option;
  is_faulty : int -> bool;
  mutable faulty_skipped : int;
  writes : int Vec.t;   (* per ever-allocated device *)
  pool : Lazy_heap.t;   (* free devices, keyed per strategy (see [pool]) *)
  mutable clock : int;  (* pool insertions so far: the Lifo/Fifo keys *)
  skipped : int Vec.t;  (* devices a hunt popped that did not fit *)
}

let create ?max_write ?(is_faulty = fun _ -> false) ~strategy () =
  (match max_write with
  | Some w when w < 3 -> invalid_arg "Alloc.create: max_write must be >= 3"
  | Some _ | None -> ());
  { strategy;
    max_write;
    is_faulty;
    faulty_skipped = 0;
    writes = Vec.create ~dummy:0 ();
    pool = Lazy_heap.create ~capacity:64;
    clock = 0;
    skipped = Vec.create ~dummy:0 () }

let writes_of t cell = Vec.get t.writes cell

let total_allocated t = Vec.length t.writes

let write_counts t = Vec.to_array t.writes

let can_write t cell =
  match t.max_write with
  | None -> true
  | Some w -> writes_of t cell + 1 <= w

(* Devices re-entering the pool must accommodate a constant load plus an
   RM3 (two writes); anything more worn is retired. *)
let poolable t cell =
  match t.max_write with
  | None -> true
  | Some w -> writes_of t cell + 2 <= w

let note_write t cell =
  (match t.max_write with
  | Some w when writes_of t cell + 1 > w ->
    invalid_arg (Printf.sprintf "Alloc.note_write: cell %d exceeds cap %d" cell w)
  | Some _ | None -> ());
  let writes = writes_of t cell + 1 in
  Vec.set t.writes cell writes;
  Metrics.incr m_writes;
  if Trace.enabled () then
    Trace.emit "alloc.write" ~args:[ ("cell", Int cell); ("writes", Int writes) ]

(* Fault-aware mode: physical cells the fault map marks bad are claimed
   (they occupy address space — the paper's #R counts them) but never
   handed out, never pooled and never written. *)
let rec fresh t =
  ignore (Vec.push t.writes 0);
  let cell = Vec.length t.writes - 1 in
  if t.is_faulty cell then begin
    t.faulty_skipped <- t.faulty_skipped + 1;
    Metrics.incr m_faulty_skipped;
    if Trace.enabled () then Trace.emit "alloc.skip_faulty" ~args:[ ("cell", Int cell) ];
    fresh t
  end
  else begin
    Metrics.incr m_fresh;
    if Trace.enabled () then Trace.emit "alloc.fresh" ~args:[ ("cell", Int cell) ];
    cell
  end

(* Pools a device under its strategy's key: the newest first for Lifo,
   the oldest first for Fifo, the least written (ties to the lowest cell)
   for Min_write.  A pooled device is dead and takes no writes, so its
   key stays valid until it leaves the pool. *)
let pool t cell =
  t.clock <- t.clock + 1;
  match t.strategy with
  | Lifo -> Lazy_heap.insert t.pool (- t.clock) 0 0 cell
  | Fifo -> Lazy_heap.insert t.pool t.clock 0 0 cell
  | Min_write -> Lazy_heap.insert t.pool (writes_of t cell) cell 0 cell

let release t cell =
  if cell < 0 || cell >= total_allocated t then
    invalid_arg "Alloc.release: unknown device";
  if t.is_faulty cell then invalid_arg "Alloc.release: faulty device";
  if poolable t cell then begin
    Metrics.incr m_released;
    if Trace.enabled () then
      Trace.emit "alloc.release"
        ~args:[ ("cell", Int cell); ("writes", Int (writes_of t cell)) ];
    pool t cell
  end
  else begin
    Metrics.incr m_retired;
    if Trace.enabled () then
      Trace.emit "alloc.retire"
        ~args:[ ("cell", Int cell); ("writes", Int (writes_of t cell)) ]
  end

let fits t needed cell =
  match t.max_write with
  | None -> true
  | Some w -> writes_of t cell + needed <= w

(* Pops until a pooled device fits [needed], or -1 when none does; the
   misfits wait in [t.skipped].  Min_write gives up at its first misfit:
   the least-written device is the most capable.  Top-level and
   closure-free: local closures would allocate two per request. *)
let rec hunt t needed =
  match Lazy_heap.pop_min t.pool with
  | None -> -1
  | Some cell when fits t needed cell -> cell
  | Some cell ->
    ignore (Vec.push t.skipped cell);
    (match t.strategy with Min_write -> -1 | Lifo | Fifo -> hunt t needed)

(* Re-pools the misfits with fresh keys: Lifo last-popped first, which
   restores its stack order; Fifo first-popped first, so they rejoin at
   the back.  Min_write's key ignores the clock. *)
let restore t =
  let n = Vec.length t.skipped in
  for i = 0 to n - 1 do
    let k = match t.strategy with Lifo -> n - 1 - i | Fifo | Min_write -> i in
    pool t (Vec.get t.skipped k)
  done;
  Vec.clear t.skipped

let request_cell ~needed t =
  let cell = hunt t needed in
  if Vec.length t.skipped > 0 then restore t;
  if cell >= 0 then cell else fresh t

let request ?(needed = 2) t =
  Metrics.incr m_requests;
  let allocated_before = total_allocated t in
  let cell = request_cell ~needed t in
  let from_pool = total_allocated t = allocated_before in
  if from_pool then Metrics.incr m_pool_hits;
  if Trace.enabled () then
    Trace.emit "alloc.request"
      ~args:[ ("cell", Int cell); ("from_pool", Bool from_pool) ];
  cell

let free_count t = Lazy_heap.live_count t.pool

let faulty_skipped t = t.faulty_skipped
