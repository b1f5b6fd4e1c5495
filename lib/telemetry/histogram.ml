(* Log-bucketed histogram over non-negative integers, HDR-style: exact
   buckets below [sub_count], then [sub_count] linear sub-buckets per
   power of two, bounding the relative quantization error by
   1/sub_count.  The bucket layout is a pure function of the value, so
   merging is element-wise integer addition — exactly associative and
   commutative, which is what lets per-task histograms built on a
   Plim_par pool fold to the same result at every -j level. *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32: <= 3.2% relative quantization error *)

type t = {
  mutable counts : int array; (* bucket index -> observation count *)
  mutable count : int;
  mutable sum : int;
  mutable min_v : int;        (* max_int when empty *)
  mutable max_v : int;        (* -1 when empty *)
}

let create () =
  { counts = Array.make sub_count 0; count = 0; sum = 0; min_v = max_int; max_v = -1 }

let clear t =
  Array.fill t.counts 0 (Array.length t.counts) 0;
  t.count <- 0;
  t.sum <- 0;
  t.min_v <- max_int;
  t.max_v <- -1

let rec log2 v = if v < 2 then 0 else 1 + log2 (v lsr 1)

let bucket_of_value v =
  if v < sub_count then v
  else
    let k = log2 v in
    ((k - sub_bits + 1) * sub_count) + ((v lsr (k - sub_bits)) - sub_count)

let bucket_bounds b =
  if b < sub_count then (b, b)
  else begin
    let k = (b / sub_count) + sub_bits - 1 in
    let sub = b mod sub_count in
    let low = (sub_count + sub) lsl (k - sub_bits) in
    (low, low + (1 lsl (k - sub_bits)) - 1)
  end

let value_bounds v =
  if v < 0 then invalid_arg "Histogram.value_bounds: negative value";
  bucket_bounds (bucket_of_value v)

let ensure t b =
  let n = Array.length t.counts in
  if b >= n then begin
    let n' = ref (max sub_count n) in
    while b >= !n' do
      n' := !n' * 2
    done;
    let counts = Array.make !n' 0 in
    Array.blit t.counts 0 counts 0 n;
    t.counts <- counts
  end

let observe t v =
  if v < 0 then invalid_arg "Histogram.observe: negative value";
  let b = bucket_of_value v in
  ensure t b;
  t.counts.(b) <- t.counts.(b) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum + v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let of_array xs =
  let t = create () in
  Array.iter (observe t) xs;
  t

let count t = t.count
let sum t = t.sum
let min_value t = if t.count = 0 then 0 else t.min_v
let max_value t = if t.count = 0 then 0 else t.max_v
let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

let copy t =
  { counts = Array.copy t.counts;
    count = t.count;
    sum = t.sum;
    min_v = t.min_v;
    max_v = t.max_v }

let merge a b =
  let n = max (Array.length a.counts) (Array.length b.counts) in
  let counts = Array.make n 0 in
  Array.iteri (fun i c -> counts.(i) <- c) a.counts;
  Array.iteri (fun i c -> counts.(i) <- counts.(i) + c) b.counts;
  { counts;
    count = a.count + b.count;
    sum = a.sum + b.sum;
    min_v = min a.min_v b.min_v;
    max_v = max a.max_v b.max_v }

let buckets t =
  let acc = ref [] in
  for b = Array.length t.counts - 1 downto 0 do
    if t.counts.(b) > 0 then begin
      let low, high = bucket_bounds b in
      acc := (low, high, t.counts.(b)) :: !acc
    end
  done;
  !acc

let equal a b =
  a.count = b.count && a.sum = b.sum
  && min_value a = min_value b
  && max_value a = max_value b
  && buckets a = buckets b

(* Nearest-rank quantile over the bucketed distribution: the reported
   value is the upper bound of the bucket holding the rank, clamped to
   the recorded min/max — so for any sample the exact nearest-rank
   quantile [q_exact] satisfies [q_exact <= quantile t q <= high] where
   [high] is the upper bound of the bucket containing [q_exact]. *)
let quantile t q =
  if q < 0.0 || q > 1.0 then invalid_arg "Histogram.quantile: q out of [0,1]";
  if t.count = 0 then 0
  else begin
    let rank = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
    let n = Array.length t.counts in
    let rec go b cum =
      if b >= n then max_value t
      else begin
        let cum = cum + t.counts.(b) in
        if cum >= rank then
          let _, high = bucket_bounds b in
          max (min high t.max_v) t.min_v
        else go (b + 1) cum
      end
    in
    go 0 0
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99

let to_json t =
  Json.Obj
    [ ("count", Int t.count); ("sum", Int t.sum); ("min", Int (min_value t));
      ("max", Int (max_value t)); ("mean", Num (mean t)); ("p50", Int (p50 t));
      ("p90", Int (p90 t)); ("p99", Int (p99 t));
      ( "buckets",
        Arr
          (List.map
             (fun (low, high, c) -> Json.Arr [ Int low; Int high; Int c ])
             (buckets t)) ) ]

let pp ppf t =
  Format.fprintf ppf "count=%d sum=%d min=%d p50=%d p90=%d p99=%d max=%d" t.count t.sum
    (min_value t) (p50 t) (p90 t) (p99 t) (max_value t)
