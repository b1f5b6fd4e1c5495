module Vec = Plim_util.Vec
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

type strategy = Lifo | Fifo | Min_write

let m_requests = Metrics.counter "alloc.requests"
let m_pool_hits = Metrics.counter "alloc.pool_hits"
let m_fresh = Metrics.counter "alloc.fresh_cells"
let m_released = Metrics.counter "alloc.released"
let m_retired = Metrics.counter "alloc.retired_cells"
let m_writes = Metrics.counter "alloc.writes"

(* Binary min-heap over (writes, cell), the two keys in parallel int
   arrays.  Keys are stable while a cell is pooled: pooled devices are dead
   and receive no writes. *)
module Heap = struct
  type t = {
    mutable writes : int array;
    mutable cells : int array;
    mutable len : int;
  }

  let create () = { writes = Array.make 64 0; cells = Array.make 64 (-1); len = 0 }

  (* lexicographic on (writes, cell) *)
  let lt h i j =
    h.writes.(i) < h.writes.(j) || (h.writes.(i) = h.writes.(j) && h.cells.(i) < h.cells.(j))

  let swap h i j =
    let w = h.writes.(i) and c = h.cells.(i) in
    h.writes.(i) <- h.writes.(j);
    h.cells.(i) <- h.cells.(j);
    h.writes.(j) <- w;
    h.cells.(j) <- c

  let rec sift_up h i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if lt h i parent then begin
        swap h i parent;
        sift_up h parent
      end
    end

  let rec sift_down h i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < h.len && lt h l !smallest then smallest := l;
    if r < h.len && lt h r !smallest then smallest := r;
    if !smallest <> i then begin
      swap h i !smallest;
      sift_down h !smallest
    end

  let push h ~writes cell =
    if h.len = Array.length h.cells then begin
      let grow a = Array.append a (Array.make h.len 0) in
      h.writes <- grow h.writes;
      h.cells <- grow h.cells
    end;
    h.writes.(h.len) <- writes;
    h.cells.(h.len) <- cell;
    h.len <- h.len + 1;
    sift_up h (h.len - 1)

  (* the least-written pooled cell; the heap must not be empty *)
  let min_cell h = h.cells.(0)

  let drop_min h =
    h.len <- h.len - 1;
    h.writes.(0) <- h.writes.(h.len);
    h.cells.(0) <- h.cells.(h.len);
    if h.len > 0 then sift_down h 0

  let length h = h.len
end

let m_faulty_skipped = Metrics.counter "alloc.faulty_skipped"

type t = {
  strategy : strategy;
  max_write : int option;
  is_faulty : int -> bool;
  mutable faulty_skipped : int;
  writes : int Vec.t;   (* per ever-allocated device *)
  stack : int Vec.t;    (* Lifo/Fifo pool *)
  mutable fifo_head : int;
  heap : Heap.t;        (* Min_write pool *)
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
    stack = Vec.create ~dummy:(-1) ();
    fifo_head = 0;
    heap = Heap.create () }

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

let release t cell =
  if cell < 0 || cell >= total_allocated t then
    invalid_arg "Alloc.release: unknown device";
  if t.is_faulty cell then invalid_arg "Alloc.release: faulty device";
  if poolable t cell then begin
    Metrics.incr m_released;
    if Trace.enabled () then
      Trace.emit "alloc.release"
        ~args:[ ("cell", Int cell); ("writes", Int (writes_of t cell)) ];
    match t.strategy with
    | Lifo | Fifo -> ignore (Vec.push t.stack cell)
    | Min_write -> Heap.push t.heap ~writes:(writes_of t cell) cell
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

let request_cell ~needed t =
  match t.strategy with
  | Lifo ->
    (* pop until a device fits; re-push the skipped ones preserving order *)
    let rec hunt stash =
      match Vec.pop t.stack with
      | None ->
        List.iter (fun c -> ignore (Vec.push t.stack c)) stash;
        fresh t
      | Some cell ->
        if fits t needed cell then begin
          List.iter (fun c -> ignore (Vec.push t.stack c)) stash;
          cell
        end
        else hunt (cell :: stash)
    in
    hunt []
  | Fifo ->
    let rec hunt stash =
      if t.fifo_head < Vec.length t.stack then begin
        let cell = Vec.get t.stack t.fifo_head in
        t.fifo_head <- t.fifo_head + 1;
        if fits t needed cell then begin
          (* skipped devices rejoin at the back of the queue *)
          List.iter (fun c -> ignore (Vec.push t.stack c)) (List.rev stash);
          Some cell
        end
        else hunt (cell :: stash)
      end
      else begin
        List.iter (fun c -> ignore (Vec.push t.stack c)) (List.rev stash);
        None
      end
    in
    let result = hunt [] in
    (* periodically compact the consumed prefix *)
    if t.fifo_head > 1024 && t.fifo_head * 2 > Vec.length t.stack then begin
      let remaining =
        Array.sub (Vec.to_array t.stack) t.fifo_head
          (Vec.length t.stack - t.fifo_head)
      in
      Vec.clear t.stack;
      Array.iter (fun c -> ignore (Vec.push t.stack c)) remaining;
      t.fifo_head <- 0
    end;
    (match result with Some cell -> cell | None -> fresh t)
  | Min_write ->
    (* the least-written device is the most capable: if it does not fit,
       no pooled device does *)
    if Heap.length t.heap > 0 && fits t needed (Heap.min_cell t.heap) then begin
      let cell = Heap.min_cell t.heap in
      Heap.drop_min t.heap;
      cell
    end
    else fresh t

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

let free_count t =
  match t.strategy with
  | Lifo -> Vec.length t.stack
  | Fifo -> Vec.length t.stack - t.fifo_head
  | Min_write -> Heap.length t.heap

let faulty_skipped t = t.faulty_skipped
