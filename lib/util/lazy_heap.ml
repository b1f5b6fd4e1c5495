(* Slots live in parallel int arrays: the three key components, the
   element and the stamp it was inserted under.  Every array is typed
   [int array], so a slot move is plain word stores (no write barrier)
   and an insert allocates nothing once the arrays have grown. *)
type t = {
  mutable k1 : int array;
  mutable k2 : int array;
  mutable k3 : int array;
  mutable elts : int array;
  mutable slot_stamps : int array;
  mutable len : int;
  mutable stamps : int array;  (* current stamp per element; negative = not live *)
  mutable live : int;
}

let create ~capacity =
  { k1 = Array.make 64 0;
    k2 = Array.make 64 0;
    k3 = Array.make 64 0;
    elts = Array.make 64 0;
    slot_stamps = Array.make 64 0;
    len = 0;
    stamps = Array.make (max capacity 1) (-1);
    live = 0 }

(* Lexicographic on (k1, k2, k3), compared as ints, between two slots,
   a slot and a key, or a key and a slot; each reads a slot's later key
   components only when the earlier ones tie. *)
let lt t i j =
  let a = t.k1.(i) and b = t.k1.(j) in
  a < b
  || a = b
     && (let a = t.k2.(i) and b = t.k2.(j) in
         a < b || (a = b && t.k3.(i) < t.k3.(j)))

let slot_lt t i k1 k2 k3 =
  let a = t.k1.(i) in
  a < k1 || (a = k1 && (let b = t.k2.(i) in b < k2 || (b = k2 && t.k3.(i) < k3)))

let key_lt k1 k2 k3 t i =
  let a = t.k1.(i) in
  k1 < a || (k1 = a && (let b = t.k2.(i) in k2 < b || (k2 = b && k3 < t.k3.(i))))

(* slot [src] overwrites slot [dst] *)
let move t src dst =
  t.k1.(dst) <- t.k1.(src);
  t.k2.(dst) <- t.k2.(src);
  t.k3.(dst) <- t.k3.(src);
  t.elts.(dst) <- t.elts.(src);
  t.slot_stamps.(dst) <- t.slot_stamps.(src)

let put t i k1 k2 k3 elt stamp =
  t.k1.(i) <- k1;
  t.k2.(i) <- k2;
  t.k3.(i) <- k3;
  t.elts.(i) <- elt;
  t.slot_stamps.(i) <- stamp

(* Both sifts carry the moving slot's fields in registers and shift the
   slots they pass over into the hole, one store per field and level,
   then [put] the slot where it stops: the same positions as swapping
   it along the path. *)
let rec sift_up t i k1 k2 k3 elt stamp =
  let parent = (i - 1) / 2 in
  if i > 0 && key_lt k1 k2 k3 t parent then begin
    move t parent i;
    sift_up t parent k1 k2 k3 elt stamp
  end
  else put t i k1 k2 k3 elt stamp

let rec sift_down t i k1 k2 k3 elt stamp =
  let l = (2 * i) + 1 in
  let r = l + 1 in
  let c = if r < t.len && lt t r l then r else l in
  if c < t.len && slot_lt t c k1 k2 k3 then begin
    move t c i;
    sift_down t c k1 k2 k3 elt stamp
  end
  else put t i k1 k2 k3 elt stamp

let widen (a : int array) size fill =
  let b = Array.make size fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_slots t =
  let size = 2 * Array.length t.elts in
  t.k1 <- widen t.k1 size 0;
  t.k2 <- widen t.k2 size 0;
  t.k3 <- widen t.k3 size 0;
  t.elts <- widen t.elts size 0;
  t.slot_stamps <- widen t.slot_stamps size 0

let insert t k1 k2 k3 elt =
  if elt < 0 then invalid_arg "Lazy_heap.insert: negative element";
  if elt >= Array.length t.stamps then
    t.stamps <- widen t.stamps (max (elt + 1) (2 * Array.length t.stamps)) (-1);
  let was_live = t.stamps.(elt) >= 0 in
  let stamp = abs t.stamps.(elt) + 1 in
  t.stamps.(elt) <- stamp;
  if not was_live then t.live <- t.live + 1;
  if t.len = Array.length t.elts then grow_slots t;
  let i = t.len in
  t.len <- i + 1;
  sift_up t i k1 k2 k3 elt stamp

(* drops the top slot, moving the last one up *)
let drop_top t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then
    sift_down t 0 t.k1.(last) t.k2.(last) t.k3.(last) t.elts.(last) t.slot_stamps.(last)

let rec drop_stale t =
  if t.len > 0 && t.stamps.(t.elts.(0)) <> t.slot_stamps.(0) then begin
    drop_top t;
    drop_stale t
  end

let pop_min t =
  drop_stale t;
  if t.len = 0 then None
  else begin
    let elt = t.elts.(0) in
    t.stamps.(elt) <- - t.slot_stamps.(0);
    drop_top t;
    t.live <- t.live - 1;
    Some elt
  end

let live_count t = t.live
