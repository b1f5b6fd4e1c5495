(* Bounded time-series store for campaign telemetry.

   Keeps a bounded sketch of the WHOLE run: every sample is offered, the
   store keeps every [stride]-th one, and when full it compacts by
   dropping every second kept sample and doubling the stride.  The first
   sample is always retained, so an accelerated-time campaign of any
   length yields a trajectory curve with bounded memory and
   deterministic contents (a pure function of the offered sequence — no
   clocks, no randomness). *)

type 'a t = {
  capacity : int;
  buf : 'a option array;
  mutable len : int;
  mutable stride : int;   (* keep one sample in [stride] *)
  mutable offered : int;  (* total samples ever offered *)
}

let create ~capacity () =
  if capacity < 2 then invalid_arg "Series.create: capacity must be >= 2";
  { capacity; buf = Array.make capacity None; len = 0; stride = 1; offered = 0 }

(* keep samples 0, 2, 4, ... (oldest first), halving the population *)
let compact t =
  let kept = (t.len + 1) / 2 in
  for i = 0 to kept - 1 do
    t.buf.(i) <- t.buf.(2 * i)
  done;
  Array.fill t.buf kept (t.capacity - kept) None;
  t.len <- kept;
  t.stride <- t.stride * 2

let offer t x =
  if t.offered mod t.stride = 0 then begin
    if t.len = t.capacity then compact t;
    (* after compaction the retained samples sit at stride [t.stride];
       only offers still on the new grid are kept from here on *)
    if t.offered mod t.stride = 0 then begin
      t.buf.(t.len) <- Some x;
      t.len <- t.len + 1
    end
  end;
  t.offered <- t.offered + 1

let to_list t =
  List.init t.len (fun i ->
      match t.buf.(i) with
      | Some x -> x
      | None -> assert false)

let last t = if t.len = 0 then None else t.buf.(t.len - 1)
