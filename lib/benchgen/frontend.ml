module Mig = Plim_mig.Mig

let and2 g x y = Mig.maj g x y Mig.false_
let or2 g x y = Mig.not_ (and2 g (Mig.not_ x) (Mig.not_ y))

(* <a b c> = (a & b) | (a & c) | (b & c), all in AND/inverter form.
   Conjunctions keep the [<x y 0>] majority shape; disjunctions are De
   Morgan inversions, so the complement structure matches what an AIG
   reader would produce. *)
let expand_node g ~old_id:_ a b c =
  if Mig.is_const a then (if Mig.is_complemented a then or2 g b c else and2 g b c)
  else if Mig.is_const b then (if Mig.is_complemented b then or2 g a c else and2 g a c)
  else if Mig.is_const c then (if Mig.is_complemented c then or2 g a b else and2 g a b)
  else or2 g (and2 g a b) (or2 g (and2 g a c) (and2 g b c))

(* At most the nodes [expand] emits: one per reachable majority with a
   constant child, five per other one, plus the constant and the inputs.
   Expansion multiplies a graph's size by about 3.8, so a target sized
   for the source alone would double its node store and strash twice. *)
let expanded_size g reachable =
  let n = ref (1 + Mig.num_inputs g) in
  for id = 0 to Mig.num_nodes g - 1 do
    if reachable.(id) && Mig.is_maj g id then begin
      let const_child =
        Mig.is_const (Mig.child g id 0) || Mig.is_const (Mig.child g id 1)
        || Mig.is_const (Mig.child g id 2)
      in
      n := !n + if const_child then 1 else 5
    end
  done;
  !n

let expand g =
  let reachable = Mig.reachable g in
  let into = Mig.create_sized ~nodes:(expanded_size g reachable) () in
  Mig.rebuild_into ~reachable ~map:(Array.make (Mig.num_nodes g) Mig.false_) g ~into
    ~rule:expand_node;
  Mig.drop_strash into;
  into

let is_aig g =
  let ok = ref true in
  Mig.iter_reachable_maj g (fun id ->
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        if not (Mig.is_const a || Mig.is_const b || Mig.is_const c) then ok := false
      | Mig.Const | Mig.Input _ -> ());
  !ok
