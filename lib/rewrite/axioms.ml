module Mig = Plim_mig.Mig

type rule =
  Mig.t -> below:int -> Mig.signal -> int -> Mig.signal -> int -> Mig.signal -> int ->
  (unit -> Mig.signal) option

(* A signal's node and polarity, read by coercion, and a node's
   children, read from the words of [Mig.t]'s [nodes]: nothing inlines
   across modules under [-opaque], so [Mig.node_of], [Mig.is_maj],
   [Mig.child] and [Mig.not_] would cost an out-of-line call per read.
   [c0], [c1] and [c2] are the byte offsets of a node's three children in
   its 12-byte record. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

let c0 = 0
let c1 = 4
let c2 = 8
let node (s : Mig.signal) = (s :> int) lsr 1
let polarity (s : Mig.signal) = (s :> int) land 1
let[@inline] word (g : Mig.t) c id = Int32.to_int (get32 g.nodes ((12 * id) + c)) land 0xFFFF_FFFF
let is_maj_signal g s = word g c1 (node s) <> word g c2 (node s)

(* The child at offset [c] of the majority node behind [s], adjusted for
   the polarity of the edge pointing at it (Ω.I view): [!<xyz> =
   <!x!y!z>].  [view] gives it as the int the decisions compare;
   [view_signal] gives it as a signal to build with.  [g] is the graph
   [s] lives in. *)
let[@inline] view g c s = word g c (node s) lxor polarity s
let view_signal g c s = Mig.signal_of_word (view g c s)

(* The first commit [f] returns on the operand pairs (a, b | c),
   (a, c | b), (b, c | a), in that order.  The decisions read a view's
   children in order.  A majority node's three children are distinct
   signals, none the complement of another (Ω.M), so a signal occurs at
   most once in a view. *)
let pairs (f : rule) g ~below a fa b fb c fc =
  match f g ~below a fa b fb c fc with
  | Some _ as r -> r
  | None ->
    (match f g ~below a fa c fc b fb with
    | Some _ as r -> r
    | None -> f g ~below b fb c fc a fa)

let mem3 (x : int) y1 y2 y3 = x = y1 || x = y2 || x = y3
let neither (s : int) x y = s <> x && s <> y

(* Ω.D R->L: <<xyu><xyv>z> = <xy<uvz>>, where x, y, u are a's view (at
   the offsets [cx], [cy], [cu]) and v is the child of b's view that is
   neither x nor y. *)
let distributivity_commit g ~below a fa b fb z cx cy cu =
  let x = view g cx a and y = view g cy a in
  let cv =
    if neither (view g c0 b) x y then c0
    else if neither (view g c1 b) x y then c1
    else c2
  in
  let u = view_signal g cu a and v = view_signal g cv b in
  if (fa <= 1 && fb <= 1) || Option.is_some (Mig.lookup ~below g u v z) then begin
    let x = view_signal g cx a and y = view_signal g cy a in
    Some (fun () -> Mig.maj g x y (Mig.maj g u v z))
  end
  else None

let distributivity_pair g ~below a fa b fb z _ =
  if not (is_maj_signal g a && is_maj_signal g b) then None
  else if node a = node b then None
  else begin
    let a1 = view g c0 a and a2 = view g c1 a and a3 = view g c2 a in
    let b1 = view g c0 b and b2 = view g c1 b and b3 = view g c2 b in
    (* exactly two children shared *)
    match (mem3 a1 b1 b2 b3, mem3 a2 b1 b2 b3, mem3 a3 b1 b2 b3) with
    | true, true, false -> distributivity_commit g ~below a fa b fb z c0 c1 c2
    | true, false, true -> distributivity_commit g ~below a fa b fb z c0 c2 c1
    | false, true, true -> distributivity_commit g ~below a fa b fb z c1 c2 c0
    | _ -> None
  end

let distributivity_rl g ~below a fa b fb c fc = pairs distributivity_pair g ~below a fa b fb c fc

(* Ω.A: <xu<yuz>> = <zu<yux>>, committed only when the new inner is free.
   [ca], [cb] hold the inner node [m]'s children other than the shared
   [u], in order; [x] is the other outer child. *)
let associativity_swap g ~below m ca cb u x =
  let t1 = view_signal g ca m and t2 = view_signal g cb m in
  (* swap outer x with inner t: inner' = <keep u x> *)
  match Mig.lookup ~below g t2 u x with
  | Some inner' -> Some (fun () -> Mig.maj g t1 u inner')
  | None ->
    (match Mig.lookup ~below g t1 u x with
    | Some inner' -> Some (fun () -> Mig.maj g t2 u inner')
    | None -> None)

let associativity_shared g ~below m (u : Mig.signal) x =
  let u' = (u :> int) in
  if view g c0 m = u' then associativity_swap g ~below m c1 c2 u x
  else if view g c1 m = u' then associativity_swap g ~below m c0 c2 u x
  else if view g c2 m = u' then associativity_swap g ~below m c0 c1 u x
  else None

(* [m] plays the inner node M; [w1], [w2] are outer. *)
let associativity_inner g ~below w1 _ w2 _ m _ =
  if not (is_maj_signal g m) then None
  else
    match associativity_shared g ~below m w1 w2 with
    | Some _ as r -> r
    | None -> associativity_shared g ~below m w2 w1

let associativity g ~below a fa b fb c fc = pairs associativity_inner g ~below a fa b fb c fc

(* Ψ.C: inner [m] contains the complement of an outer child p; replace
   that occurrence by the other outer child q.  [ca], [cb] hold the inner
   node's other children, in order. *)
let complementary_commit g ~below m fm ca cb p q =
  let k1 = view_signal g ca m and k2 = view_signal g cb m in
  if fm <= 1 || Option.is_some (Mig.lookup ~below g k1 k2 q) then
    Some (fun () -> Mig.maj g p q (Mig.maj g k1 k2 q))
  else None

let complementary_outer g ~below m fm (p : Mig.signal) q =
  let np = (p :> int) lxor 1 in
  if view g c0 m = np then complementary_commit g ~below m fm c1 c2 p q
  else if view g c1 m = np then complementary_commit g ~below m fm c0 c2 p q
  else if view g c2 m = np then complementary_commit g ~below m fm c0 c1 p q
  else None

let complementary_inner g ~below p _ q _ m fm =
  if not (is_maj_signal g m) then None
  else
    match complementary_outer g ~below m fm p q with
    | Some _ as r -> r
    | None -> complementary_outer g ~below m fm q p

let complementary_associativity g ~below a fa b fb c fc =
  pairs complementary_inner g ~below a fa b fb c fc

let complemented_children _g a b c =
  let count s = if polarity s = 1 && node s <> 0 then 1 else 0 in
  count a + count b + count c

(* Ω.I R->L (1)-(3): >=2 complemented non-constant children -> flip all,
   complement the output. *)
let inverter_propagation g ~below:_ a _ b _ c _ =
  if complemented_children g a b c >= 2 then
    Some (fun () -> Mig.not_ (Mig.maj g (Mig.not_ a) (Mig.not_ b) (Mig.not_ c)))
  else None

let rec first rules g ~below a fa b fb c fc =
  match rules with
  | [] -> None
  | (rule : rule) :: rest ->
    (match rule g ~below a fa b fb c fc with
    | Some _ as r -> r
    | None -> first rest g ~below a fa b fb c fc)

let apply_first rules g a fa b fb c fc =
  match first rules g ~below:max_int a fa b fb c fc with
  | Some commit -> commit ()
  | None -> Mig.maj g a b c
