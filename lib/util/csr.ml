let prefix_sums start =
  for b = 1 to Array.length start - 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done

(* [start.(b)] is bucket [b]'s fill cursor; once every bucket is full it
   holds where bucket [b + 1] begins, so shifting the array one slot up
   restores the offsets (the total at the last index never moves). *)
let scatter start iter =
  let last = Array.length start - 1 in
  let out = Array.make start.(last) 0 in
  iter (fun b v ->
      out.(start.(b)) <- v;
      start.(b) <- start.(b) + 1);
  for b = last - 1 downto 1 do
    start.(b) <- start.(b - 1)
  done;
  start.(0) <- 0;
  out

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] get t i = Int32.to_int (get32 t (4 * i))
let[@inline] set t i v = set32 t (4 * i) (Int32.of_int v)

let prefix_sums32 start =
  for b = 1 to (Bytes.length start / 4) - 1 do
    set start b (get start b + get start (b - 1))
  done

(* [scatter] on 32-bit words: the same cursors, and one [blit] shifts
   them back. *)
let scatter32 start iter =
  let last = (Bytes.length start / 4) - 1 in
  let out = Bytes.create (4 * get start last) in
  iter (fun b v ->
      let k = get start b in
      set out k v;
      set start b (k + 1));
  if last > 0 then begin
    Bytes.blit start 0 start 4 (4 * (last - 1));
    set start 0 0
  end;
  out
