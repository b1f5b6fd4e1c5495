module Mig = Plim_mig.Mig

type word = Mig.signal array

let width = Array.length

let constant g ~width v =
  ignore g;
  if width < 0 then invalid_arg "Word.constant: negative width";
  Array.init width (fun i ->
      if (v lsr i) land 1 = 1 then Mig.true_ else Mig.false_)

let input g name w =
  Array.init w (fun i -> Mig.add_input g (Printf.sprintf "%s_%d" name i))

let output g name w =
  Array.iteri (fun i s -> Mig.add_output g (Printf.sprintf "%s_%d" name i) s) w

let zero_extend w n =
  if n < width w then invalid_arg "Word.zero_extend: shrinking";
  Array.init n (fun i -> if i < width w then w.(i) else Mig.false_)

let slice w ~lo ~len =
  if lo < 0 || len < 0 || lo + len > width w then invalid_arg "Word.slice";
  Array.sub w lo len

let not_word w = Array.map Mig.not_ w

let check_same_width name a b =
  if width a <> width b then
    invalid_arg (Printf.sprintf "Word.%s: width mismatch (%d vs %d)" name (width a) (width b))

let mux_word g s a b =
  check_same_width "mux_word" a b;
  Array.init (width a) (fun i -> Mig.mux g s a.(i) b.(i))

(* MIG full adder (3 nodes): carry = <a b c>; m = <a b !c>;
   sum = <m !carry c>. *)
let full_adder g a b c =
  let carry = Mig.maj g a b c in
  let m = Mig.maj g a b (Mig.not_ c) in
  let sum = Mig.maj g m (Mig.not_ carry) c in
  (sum, carry)

let add g ?(cin = Mig.false_) a b =
  check_same_width "add" a b;
  let carry = ref cin in
  let sum =
    Array.init (width a) (fun i ->
        let s, c = full_adder g a.(i) b.(i) !carry in
        carry := c;
        s)
  in
  (sum, !carry)

(* a - b = a + !b + 1; carry-out = 1 iff no borrow (a >= b) *)
let sub g a b =
  let diff, carry = add g ~cin:Mig.true_ a (not_word b) in
  (diff, carry)

let less_than g a b =
  let _, no_borrow = sub g a b in
  Mig.not_ no_borrow

let shift_left_const g w n =
  ignore g;
  if n < 0 then invalid_arg "Word.shift_left_const";
  Array.init (width w) (fun i -> if i < n then Mig.false_ else w.(i - n))

let shift_right_const g w n =
  ignore g;
  if n < 0 then invalid_arg "Word.shift_right_const";
  Array.init (width w) (fun i -> if i + n < width w then w.(i + n) else Mig.false_)

let barrel_shift_right g w ~amount =
  let result = ref w in
  Array.iteri
    (fun stage bit ->
      let shifted = shift_right_const g !result (1 lsl stage) in
      result := mux_word g bit shifted !result)
    amount;
  !result

let barrel_shift_left g w ~amount =
  let result = ref w in
  Array.iteri
    (fun stage bit ->
      let shifted = shift_left_const g !result (1 lsl stage) in
      result := mux_word g bit shifted !result)
    amount;
  !result

(* Schoolbook array multiplier: accumulate shifted partial products. *)
let mul g a b =
  let wa = width a and wb = width b in
  if wa = 0 || wb = 0 then [||]
  else begin
    let total = wa + wb in
    let acc = ref (constant g ~width:total 0) in
    for i = 0 to wb - 1 do
      (* partial product a * b_i, aligned at bit i *)
      let pp =
        Array.init total (fun j ->
            if j >= i && j - i < wa then Mig.and_ g b.(i) a.(j - i) else Mig.false_)
      in
      let sum, _ = add g !acc pp in
      acc := sum
    done;
    !acc
  end

let square g x = mul g x x

let divmod g dividend divisor =
  let w = width dividend in
  if width divisor = 0 || w = 0 then invalid_arg "Word.divmod: empty operand";
  let wd = width divisor in
  (* remainder register one bit wider than the divisor to absorb the shift *)
  let rw = wd + 1 in
  let divisor_ext = zero_extend divisor rw in
  let rem = ref (constant g ~width:rw 0) in
  let quotient = Array.make w Mig.false_ in
  for i = w - 1 downto 0 do
    (* rem = (rem << 1) | dividend_i *)
    let shifted = shift_left_const g !rem 1 in
    shifted.(0) <- dividend.(i);
    let diff, no_borrow = sub g shifted divisor_ext in
    quotient.(i) <- no_borrow;
    rem := mux_word g no_borrow diff shifted
  done;
  (quotient, slice !rem ~lo:0 ~len:(min w wd))

let isqrt g n =
  let wn = width n in
  if wn mod 2 <> 0 then invalid_arg "Word.isqrt: width must be even";
  let w = wn / 2 in
  let rw = w + 2 in
  let rem = ref (constant g ~width:rw 0) in
  let root = ref (constant g ~width:rw 0) in
  for i = w - 1 downto 0 do
    (* rem = (rem << 2) | n[2i+1 : 2i] *)
    let shifted = shift_left_const g !rem 2 in
    shifted.(0) <- n.(2 * i);
    shifted.(1) <- n.((2 * i) + 1);
    (* root <<= 1; trial = (root << 1) | 1 = 2*root + 1 *)
    let root_shifted = shift_left_const g !root 1 in
    let trial = shift_left_const g root_shifted 1 in
    trial.(0) <- Mig.true_;
    let diff, ge = sub g shifted trial in
    rem := mux_word g ge diff shifted;
    root_shifted.(0) <- ge;
    root := root_shifted
  done;
  slice !root ~lo:0 ~len:w

let rec popcount g w =
  match width w with
  | 0 -> [||]
  | 1 -> [| w.(0) |]
  | 2 ->
    let s, c = full_adder g w.(0) w.(1) Mig.false_ in
    [| s; c |]
  | 3 ->
    let s, c = full_adder g w.(0) w.(1) w.(2) in
    [| s; c |]
  | n ->
    let half = n / 2 in
    let lo = popcount g (Array.sub w 0 half) in
    let hi = popcount g (Array.sub w half (n - half)) in
    let wmax = 1 + max (width lo) (width hi) in
    let sum, carry = add g (zero_extend lo wmax) (zero_extend hi wmax) in
    ignore carry; (* cannot overflow: wmax has headroom *)
    sum

let bits_needed n =
  let rec go acc v = if v <= 1 then max acc 1 else go (acc + 1) ((v + 1) / 2) in
  go 0 n

let priority_encode g w =
  let n = width w in
  if n = 0 then invalid_arg "Word.priority_encode: empty word";
  let iw = bits_needed n in
  let index = ref (constant g ~width:iw 0) in
  let valid = ref Mig.false_ in
  (* ascending scan: the highest set bit decides last *)
  Array.iteri
    (fun i bit ->
      index := mux_word g bit (constant g ~width:iw i) !index;
      valid := Mig.or_ g !valid bit)
    w;
  (!index, !valid)

let rec decode g sel =
  match width sel with
  | 0 -> [| Mig.true_ |]
  | _ ->
    let low = decode g (slice sel ~lo:0 ~len:(width sel - 1)) in
    let top = sel.(width sel - 1) in
    let without = Array.map (fun s -> Mig.and_ g (Mig.not_ top) s) low in
    let with_ = Array.map (fun s -> Mig.and_ g top s) low in
    Array.append without with_
