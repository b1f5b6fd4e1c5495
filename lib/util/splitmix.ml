(* The 64-bit state lives in 8 bytes rather than a mutable [int64] field:
   reading, advancing and storing it then stays unboxed, and with
   [next64] inlined into the draws below, [bool], [int] and [bits53]
   allocate nothing. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  set64 t 0 (Int64.of_int seed);
  t

(* splitmix64 from Steele, Lea & Flood, "Fast splittable pseudorandom
   number generators", OOPSLA'14: the output mix of state [z]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next64 t =
  let z = Int64.add (get64 t 0) gamma in
  set64 t 0 z;
  mix z

(* Rejection sampling over the top 62 bits (the conversion to OCaml's
   63-bit int stays non-negative).  A plain [x mod bound] overweights the
   residues below [2^62 mod bound]; draws at or above the largest multiple
   of [bound] are redrawn instead, so every residue is equally likely.
   Accepted draws produce the same value the pre-rejection implementation
   did, which keeps every seed-pinned stream (corpus entries, benchmark
   seeds) byte-stable: only the astronomically rare rejected draw
   (probability < bound / 2^62) advances the state one extra step. *)
let rec draw_below t ~threshold bound =
  let x = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  if x <= threshold then x mod bound else draw_below t ~threshold bound

let int t bound =
  if bound <= 0 then invalid_arg "Splitmix.int: bound must be positive";
  let tail = ((max_int mod bound) + 1) mod bound (* = 2^62 mod bound *) in
  draw_below t ~threshold:(max_int - tail) bound

let[@inline] bool t = Int64.logand (next64 t) 1L = 1L

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next64 t) 11)

let[@inline] float t = float_of_int (bits53 t) /. 9007199254740992.0 (* 2^53 *)

let bits t ~width = Array.init width (fun _ -> bool t)

(* Derive the seed of an independent child stream: one splitmix64 step over
   the root seed offset by the (index+1)-th multiple of the golden-gamma
   increment.  Sibling indices land on well-separated states, so per-task
   streams never share a prefix with each other or with the root stream;
   the result depends only on (root, index), never on draw order. *)
let derive root i =
  if i < 0 then invalid_arg "Splitmix.derive: index must be non-negative";
  let state = Int64.add (Int64.of_int root) (Int64.mul (Int64.of_int (i + 1)) gamma) in
  Int64.to_int (Int64.shift_right_logical (mix (Int64.add state gamma)) 2)
