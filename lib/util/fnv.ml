(* FNV-1a 64-bit: offset basis 0xcbf29ce484222325, prime 0x100000001b3.

   The running hash lives in bytes rather than a mutable [int64] field,
   so feeding a byte reads, mixes and stores an unboxed value and
   allocates nothing. *)

type t = Bytes.t  (* the hash in bytes 0-7, digit scratch in 8-27 *)

let scratch_end = 28

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let create () =
  let t = Bytes.create scratch_end in
  set64 t 0 0xCBF29CE484222325L;
  t

let prime = 0x100000001B3L

let[@inline] mix h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime

let add_char t c = set64 t 0 (mix (get64 t 0) c)

let add_string t s =
  let h = ref (get64 t 0) in
  for i = 0 to String.length s - 1 do
    h := mix !h (String.unsafe_get s i)
  done;
  set64 t 0 !h

(* The decimal text of [n >= 0] is laid out backwards in the scratch
   bytes behind the hash (19 of them hold [max_int]), dividing only by
   the constant 10, then hashed forwards. *)
let add_int t n =
  if n < 0 then add_string t (string_of_int n)
  else begin
    let pos = ref scratch_end and n = ref n in
    while
      decr pos;
      Bytes.unsafe_set t !pos (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10;
      !n > 0
    do () done;
    let h = ref (get64 t 0) in
    for i = !pos to scratch_end - 1 do
      h := mix !h (Bytes.unsafe_get t i)
    done;
    set64 t 0 !h
  end

let value t = get64 t 0

let hex t = Printf.sprintf "%016Lx" (value t)

let digest_string s =
  let t = create () in
  add_string t s;
  hex t
