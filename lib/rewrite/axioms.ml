module Mig = Plim_mig.Mig

type operand = {
  s : Mig.signal;
  old_fanout : int;
}

type rule =
  Mig.t -> below:int -> operand -> operand -> operand -> (unit -> Mig.signal) option

(* The three children of a majority node, adjusted for the polarity of the
   edge pointing at it (Ω.I view): [!<xyz> = <!x!y!z>]. *)
let maj_view g s =
  match Mig.kind g (Mig.node_of s) with
  | Mig.Maj (x, y, z) ->
    if Mig.is_complemented s then Some (Mig.not_ x, Mig.not_ y, Mig.not_ z)
    else Some (x, y, z)
  | Mig.Const | Mig.Input _ -> None

let pairs = [ (0, 1, 2); (0, 2, 1); (1, 2, 0) ]

let seq = Mig.signal_equal

(* Ω.D R->L: <<xyu><xyv>z> = <xy<uvz>> *)
let distributivity_rl g ~below oa ob oc =
  let ops = [| oa; ob; oc |] in
  let try_pair (i, j, k) =
    let pa = ops.(i) and pb = ops.(j) and z = ops.(k).s in
    match (maj_view g pa.s, maj_view g pb.s) with
    | Some (a1, a2, a3), Some (b1, b2, b3)
      when Mig.node_of pa.s <> Mig.node_of pb.s ->
      let la = [ a1; a2; a3 ] and lb = [ b1; b2; b3 ] in
      let common = List.filter (fun x -> List.exists (seq x) lb) la in
      (match common with
      | [ x; y ] ->
        let rest l = List.filter (fun s -> not (List.exists (seq s) common)) l in
        (match (rest la, rest lb) with
        | [ u ], [ v ] ->
          let free = Option.is_some (Mig.lookup ~below g u v z) in
          if free || (pa.old_fanout <= 1 && pb.old_fanout <= 1) then
            Some (fun () -> Mig.maj g x y (Mig.maj g u v z))
          else None
        | _, _ -> None)
      | _ -> None)
    | _, _ -> None
  in
  List.find_map try_pair pairs

(* Ω.A: <xu<yuz>> = <zu<yux>>, committed only when the new inner is free. *)
let associativity g ~below oa ob oc =
  let ops = [| oa; ob; oc |] in
  let try_inner (i, j, k) =
    (* ops.(k) plays the inner node M; ops.(i), ops.(j) are outer. *)
    let m = ops.(k).s and w1 = ops.(i).s and w2 = ops.(j).s in
    match maj_view g m with
    | None -> None
    | Some (m1, m2, m3) ->
      let inner = [ m1; m2; m3 ] in
      let try_shared u x =
        (* u shared between outer and inner; x = other outer child *)
        if not (List.exists (seq u) inner) then None
        else begin
          let others = List.filter (fun s -> not (seq s u)) inner in
          match others with
          | [ t1; t2 ] ->
            let attempt t keep =
              (* swap outer x with inner t: inner' = <keep u x> *)
              match Mig.lookup ~below g keep u x with
              | Some inner' -> Some (fun () -> Mig.maj g t u inner')
              | None -> None
            in
            (match attempt t1 t2 with
            | Some r -> Some r
            | None -> attempt t2 t1)
          | _ -> None (* u occurred twice in the view; cannot happen post Ω.M *)
        end
      in
      (match try_shared w1 w2 with Some r -> Some r | None -> try_shared w2 w1)
  in
  List.find_map try_inner pairs

(* Ψ.C: inner contains the complement of an outer child p; replace that
   occurrence by the other outer child q. *)
let complementary_associativity g ~below oa ob oc =
  let ops = [| oa; ob; oc |] in
  let try_inner (i, j, k) =
    let m = ops.(k) and p = ops.(i).s and q = ops.(j).s in
    match maj_view g m.s with
    | None -> None
    | Some (m1, m2, m3) ->
      let inner = [ m1; m2; m3 ] in
      let try_outer p q =
        let np = Mig.not_ p in
        if not (List.exists (seq np) inner) then None
        else begin
          let keep = List.filter (fun s -> not (seq s np)) inner in
          match keep with
          | [ k1; k2 ] ->
            let free = Option.is_some (Mig.lookup ~below g k1 k2 q) in
            if free || m.old_fanout <= 1 then
              Some (fun () -> Mig.maj g p q (Mig.maj g k1 k2 q))
            else None
          | _ -> None
        end
      in
      (match try_outer p q with Some r -> Some r | None -> try_outer q p)
  in
  List.find_map try_inner pairs

let complemented_children _g a b c =
  let count s = if Mig.is_complemented s && not (Mig.is_const s) then 1 else 0 in
  count a + count b + count c

(* Ω.I R->L (1)-(3): >=2 complemented non-constant children -> flip all,
   complement the output. *)
let inverter_propagation g ~below:_ oa ob oc =
  let a = oa.s and b = ob.s and c = oc.s in
  if complemented_children g a b c >= 2 then
    Some (fun () -> Mig.not_ (Mig.maj g (Mig.not_ a) (Mig.not_ b) (Mig.not_ c)))
  else None

let first rules g ~below oa ob oc =
  List.find_map (fun (rule : rule) -> rule g ~below oa ob oc) rules

let apply_first rules g oa ob oc =
  match first rules g ~below:max_int oa ob oc with
  | Some commit -> commit ()
  | None -> Mig.maj g oa.s ob.s oc.s
