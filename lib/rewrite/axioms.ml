module Mig = Plim_mig.Mig

type operand = {
  s : Mig.signal;
  old_fanout : int;
}

type rule =
  Mig.t -> below:int -> operand -> operand -> operand -> (unit -> Mig.signal) option

(* A signal's node, polarity and equality, read by coercion: nothing
   inlines across modules under [-opaque], so [Mig.node_of] and friends
   would cost an out-of-line call per read. *)
let node (s : Mig.signal) = (s :> int) lsr 1
let complemented (s : Mig.signal) = (s :> int) land 1 = 1
let seq (a : Mig.signal) (b : Mig.signal) = (a :> int) = (b :> int)

(* Child [i] of the majority node behind [s], adjusted for the polarity of
   the edge pointing at it (Ω.I view): [!<xyz> = <!x!y!z>].  Only for
   [Mig.is_maj g (node s)]. *)
let view g s i =
  let x = Mig.child g (node s) i in
  if complemented s then Mig.not_ x else x

let is_maj_signal g s = Mig.is_maj g (node s)

(* The first commit [f] returns on the operand pairs (a, b | c),
   (a, c | b), (b, c | a), in that order.  The decisions read a view's
   children in order.  A majority node's three children are distinct
   signals, none the complement of another (Ω.M), so a signal occurs at
   most once in a view. *)
let pairs f g ~below oa ob oc =
  match f g ~below oa ob oc with
  | Some _ as r -> r
  | None ->
    (match f g ~below oa oc ob with
    | Some _ as r -> r
    | None -> f g ~below ob oc oa)

let mem3 x s1 s2 s3 = seq x s1 || seq x s2 || seq x s3

(* Ω.D R->L: <<xyu><xyv>z> = <xy<uvz>>, where x, y, u are pa's view and
   v is the child of pb's view that is neither x nor y. *)
let distributivity_commit g ~below pa pb z b1 b2 b3 x y u =
  let v =
    if not (seq b1 x || seq b1 y) then b1
    else if not (seq b2 x || seq b2 y) then b2
    else b3
  in
  if (pa.old_fanout <= 1 && pb.old_fanout <= 1)
     || Option.is_some (Mig.lookup ~below g u v z)
  then Some (fun () -> Mig.maj g x y (Mig.maj g u v z))
  else None

let distributivity_pair g ~below pa pb oz =
  let z = oz.s in
  if not (is_maj_signal g pa.s && is_maj_signal g pb.s) then None
  else if node pa.s = node pb.s then None
  else begin
    let a1 = view g pa.s 0 and a2 = view g pa.s 1 and a3 = view g pa.s 2 in
    let b1 = view g pb.s 0 and b2 = view g pb.s 1 and b3 = view g pb.s 2 in
    (* exactly two children shared *)
    match (mem3 a1 b1 b2 b3, mem3 a2 b1 b2 b3, mem3 a3 b1 b2 b3) with
    | true, true, false -> distributivity_commit g ~below pa pb z b1 b2 b3 a1 a2 a3
    | true, false, true -> distributivity_commit g ~below pa pb z b1 b2 b3 a1 a3 a2
    | false, true, true -> distributivity_commit g ~below pa pb z b1 b2 b3 a2 a3 a1
    | _ -> None
  end

let distributivity_rl g ~below oa ob oc = pairs distributivity_pair g ~below oa ob oc

(* Ω.A: <xu<yuz>> = <zu<yux>>, committed only when the new inner is free.
   [t1], [t2] are the inner node's children other than the shared [u],
   in order; [x] is the other outer child. *)
let associativity_swap g ~below t1 t2 u x =
  (* swap outer x with inner t: inner' = <keep u x> *)
  match Mig.lookup ~below g t2 u x with
  | Some inner' -> Some (fun () -> Mig.maj g t1 u inner')
  | None ->
    (match Mig.lookup ~below g t1 u x with
    | Some inner' -> Some (fun () -> Mig.maj g t2 u inner')
    | None -> None)

let associativity_shared g ~below m u x =
  let m1 = view g m 0 and m2 = view g m 1 and m3 = view g m 2 in
  if seq u m1 then associativity_swap g ~below m2 m3 u x
  else if seq u m2 then associativity_swap g ~below m1 m3 u x
  else if seq u m3 then associativity_swap g ~below m1 m2 u x
  else None

(* [om] plays the inner node M; [ow1], [ow2] are outer. *)
let associativity_inner g ~below ow1 ow2 om =
  let m = om.s and w1 = ow1.s and w2 = ow2.s in
  if not (is_maj_signal g m) then None
  else
    match associativity_shared g ~below m w1 w2 with
    | Some _ as r -> r
    | None -> associativity_shared g ~below m w2 w1

let associativity g ~below oa ob oc = pairs associativity_inner g ~below oa ob oc

(* Ψ.C: inner contains the complement of an outer child p; replace that
   occurrence by the other outer child q.  [k1], [k2] are the inner
   node's other children, in order. *)
let complementary_commit g ~below m k1 k2 p q =
  if m.old_fanout <= 1 || Option.is_some (Mig.lookup ~below g k1 k2 q) then
    Some (fun () -> Mig.maj g p q (Mig.maj g k1 k2 q))
  else None

let complementary_outer g ~below m p q =
  let np = Mig.not_ p in
  let m1 = view g m.s 0 and m2 = view g m.s 1 and m3 = view g m.s 2 in
  if seq np m1 then complementary_commit g ~below m m2 m3 p q
  else if seq np m2 then complementary_commit g ~below m m1 m3 p q
  else if seq np m3 then complementary_commit g ~below m m1 m2 p q
  else None

let complementary_inner g ~below op oq m =
  if not (is_maj_signal g m.s) then None
  else
    match complementary_outer g ~below m op.s oq.s with
    | Some _ as r -> r
    | None -> complementary_outer g ~below m oq.s op.s

let complementary_associativity g ~below oa ob oc =
  pairs complementary_inner g ~below oa ob oc

let complemented_children _g a b c =
  let count s = if complemented s && node s <> 0 then 1 else 0 in
  count a + count b + count c

(* Ω.I R->L (1)-(3): >=2 complemented non-constant children -> flip all,
   complement the output. *)
let inverter_propagation g ~below:_ oa ob oc =
  let a = oa.s and b = ob.s and c = oc.s in
  if complemented_children g a b c >= 2 then
    Some (fun () -> Mig.not_ (Mig.maj g (Mig.not_ a) (Mig.not_ b) (Mig.not_ c)))
  else None

let rec first rules g ~below oa ob oc =
  match rules with
  | [] -> None
  | (rule : rule) :: rest ->
    (match rule g ~below oa ob oc with
    | Some _ as r -> r
    | None -> first rest g ~below oa ob oc)

let apply_first rules g oa ob oc =
  match first rules g ~below:max_int oa ob oc with
  | Some commit -> commit ()
  | None -> Mig.maj g oa.s ob.s oc.s
