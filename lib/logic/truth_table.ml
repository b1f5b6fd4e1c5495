type t = {
  n : int;
  bits : int64 array; (* 2^n bits, 64 per word; unused high bits are zero *)
}

let max_vars = 16

let words_for n = max 1 ((1 lsl n) + 63) / 64 |> max 1

let num_minterms n = 1 lsl n

(* Mask for the valid bits of the last word (when 2^n < 64). *)
let tail_mask n =
  let m = num_minterms n in
  if m >= 64 then Int64.minus_one
  else Int64.sub (Int64.shift_left 1L m) 1L

let check_vars n =
  if n < 0 || n > max_vars then
    invalid_arg (Printf.sprintf "Truth_table: %d variables unsupported" n)

let const_ n b =
  check_vars n;
  let w = words_for n in
  let fill = if b then tail_mask n else 0L in
  let bits = Array.make w 0L in
  if b then begin
    Array.fill bits 0 w Int64.minus_one;
    bits.(w - 1) <- fill
  end;
  { n; bits }

(* Periodic pattern of variable [i]: blocks of 2^i zeros then 2^i ones. *)
let var n i =
  check_vars n;
  if i < 0 || i >= n then invalid_arg "Truth_table.var: index out of range";
  let w = words_for n in
  let bits = Array.make w 0L in
  if i >= 6 then begin
    (* whole words alternate in runs of 2^(i-6) *)
    let run = 1 lsl (i - 6) in
    for word = 0 to w - 1 do
      if (word / run) land 1 = 1 then bits.(word) <- Int64.minus_one
    done
  end
  else begin
    (* within-word periodic pattern *)
    let period = 1 lsl (i + 1) in
    let half = 1 lsl i in
    let pattern = ref 0L in
    for b = 0 to 63 do
      if b mod period >= half then pattern := Int64.logor !pattern (Int64.shift_left 1L b)
    done;
    Array.fill bits 0 w !pattern
  end;
  bits.(w - 1) <- Int64.logand bits.(w - 1) (tail_mask n);
  { n; bits }

let same_arity a b =
  if a.n <> b.n then invalid_arg "Truth_table: arity mismatch"

let map2 f a b =
  same_arity a b;
  { n = a.n; bits = Array.init (Array.length a.bits) (fun i -> f a.bits.(i) b.bits.(i)) }

let not_ a =
  let t = { n = a.n; bits = Array.map Int64.lognot a.bits } in
  let w = Array.length t.bits in
  t.bits.(w - 1) <- Int64.logand t.bits.(w - 1) (tail_mask a.n);
  t

let and_ = map2 Int64.logand
let or_ = map2 Int64.logor
let xor = map2 Int64.logxor

let maj a b c =
  same_arity a b;
  same_arity b c;
  let f x y z =
    Int64.logor
      (Int64.logor (Int64.logand x y) (Int64.logand x z))
      (Int64.logand y z)
  in
  { n = a.n;
    bits = Array.init (Array.length a.bits) (fun i -> f a.bits.(i) b.bits.(i) c.bits.(i)) }

let mux s a b = or_ (and_ s a) (and_ (not_ s) b)

let equal a b = a.n = b.n && Array.for_all2 ( = ) a.bits b.bits

let get t minterm =
  if minterm < 0 || minterm >= num_minterms t.n then
    invalid_arg "Truth_table.get: minterm out of range";
  let word = minterm / 64 and bit = minterm mod 64 in
  Int64.logand (Int64.shift_right_logical t.bits.(word) bit) 1L = 1L

let eval t assignment =
  if Array.length assignment <> t.n then
    invalid_arg "Truth_table.eval: assignment arity mismatch";
  let minterm = ref 0 in
  for i = t.n - 1 downto 0 do
    minterm := (!minterm lsl 1) lor (if assignment.(i) then 1 else 0)
  done;
  get t !minterm

let count_ones t =
  let pop x =
    let c = ref 0 in
    let x = ref x in
    while !x <> 0L do
      c := !c + Int64.to_int (Int64.logand !x 1L);
      x := Int64.shift_right_logical !x 1
    done;
    !c
  in
  Array.fold_left (fun acc w -> acc + pop w) 0 t.bits

let of_fun n f =
  check_vars n;
  let bits = Array.make (words_for n) 0L in
  for m = 0 to num_minterms n - 1 do
    let assignment = Array.init n (fun i -> (m lsr i) land 1 = 1) in
    if f assignment then begin
      let word = m / 64 and bit = m mod 64 in
      bits.(word) <- Int64.logor bits.(word) (Int64.shift_left 1L bit)
    end
  done;
  { n; bits }

let to_hex t =
  let buf = Buffer.create (Array.length t.bits * 16) in
  for i = Array.length t.bits - 1 downto 0 do
    Buffer.add_string buf (Printf.sprintf "%016Lx" t.bits.(i))
  done;
  Buffer.contents buf

let pp ppf t = Format.fprintf ppf "tt<%d>:%s" t.n (to_hex t)
