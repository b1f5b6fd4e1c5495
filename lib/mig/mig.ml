module Vec = Plim_util.Vec
module Truth_table = Plim_logic.Truth_table

type signal = int
(* packed: node id * 2 + (1 if complemented) *)

type node_kind =
  | Const
  | Input of int
  | Maj of signal * signal * signal

(* tag values in the [tag] vector *)
let tag_const = 0
let tag_input = 1
let tag_maj = 2

type t = {
  tag : int Vec.t;
  c0 : int Vec.t; (* maj: sorted child signals / input: PI index *)
  c1 : int Vec.t;
  c2 : int Vec.t;
  mutable strash : int array;
  (* open-addressed structural hash: majority node ids, each keyed on its
     own (c0, c1, c2); 0 (the constant's id) marks an empty slot.  The
     length is a power of two, doubled before more than half the slots
     fill, so probes stay short. *)
  mutable strash_count : int; (* full slots: the majority node count *)
  input_names : string Vec.t;
  input_nodes : int Vec.t;       (* PI index -> node id *)
  outs : (string * signal) Vec.t;
}

(* {1 Signals} *)

let signal node complemented = (node lsl 1) lor (if complemented then 1 else 0)
let node_of s = s lsr 1
let is_complemented s = s land 1 = 1
let not_ s = s lxor 1
let ( ~: ) = not_
let signal_equal (a : signal) b = a = b
let false_ = signal 0 false
let true_ = signal 0 true
let is_const s = node_of s = 0
let compare_signal (a : signal) b = compare a b

let pp_signal ppf s =
  Format.fprintf ppf "%s%d" (if is_complemented s then "!" else "") (node_of s)

(* {1 Construction} *)

(* The smallest power of two of at least [2 * nodes] slots, and at least
   256. *)
let strash_slots nodes =
  let rec pow2 n = if n >= 2 * nodes then n else pow2 (2 * n) in
  pow2 256

(* [nodes] sizes the node vectors and the strash up front, so a rebuild
   never regrows or rehashes them. *)
let create_sized ?nodes () =
  let vec dummy = Vec.create ?capacity:nodes ~dummy () in
  let g =
    { tag = vec tag_const;
      c0 = vec 0;
      c1 = vec 0;
      c2 = vec 0;
      strash = Array.make (strash_slots (Option.value nodes ~default:0)) 0;
      strash_count = 0;
      input_names = Vec.create ~dummy:"" ();
      input_nodes = Vec.create ~dummy:0 ();
      outs = Vec.create ~dummy:("", 0) () }
  in
  (* node 0: the constant *)
  ignore (Vec.push g.tag tag_const);
  ignore (Vec.push g.c0 0);
  ignore (Vec.push g.c1 0);
  ignore (Vec.push g.c2 0);
  g

let create () = create_sized ()

let new_node g tag c0 c1 c2 =
  let id = Vec.push g.tag tag in
  ignore (Vec.push g.c0 c0);
  ignore (Vec.push g.c1 c1);
  ignore (Vec.push g.c2 c2);
  id

(* Names are not checked: the caller knows they are unique. *)
let push_input g name =
  let pi = Vec.push g.input_names name in
  let id = new_node g tag_input pi 0 0 in
  ignore (Vec.push g.input_nodes id);
  signal id false

let add_input g name =
  if Vec.exists (String.equal name) g.input_names then
    invalid_arg (Printf.sprintf "Mig.add_input: duplicate input %S" name);
  push_input g name

let min_signal (a : signal) b = if a <= b then a else b
let max_signal (a : signal) b = if a <= b then b else a

let no_reduction = -1

(* Ω.M on a sorted triple; [no_reduction] when no reduction applies. *)
let reduce a b c =
  if a = b then a
  else if b = c then b
  else if node_of a = node_of b then c (* x and !x *)
  else if node_of b = node_of c then a
  else no_reduction

let hash3 a b c =
  let h = (((a * 0x9E3779B1) + b) * 0x85EBCA77) + c in
  let h = h * 0xC2B2AE3D in
  h lxor (h lsr 29)

(* Linear probing from the key's home slot: the slot holding the majority
   node <a b c>, or the empty slot where it belongs. *)
let rec probe g slots mask a b c i =
  let id = slots.(i) in
  if id = 0 || (Vec.get g.c0 id = a && Vec.get g.c1 id = b && Vec.get g.c2 id = c)
  then i
  else probe g slots mask a b c ((i + 1) land mask)

let slot g slots a b c =
  let mask = Array.length slots - 1 in
  probe g slots mask a b c (hash3 a b c land mask)

let grow_strash g =
  let old = g.strash in
  let slots = Array.make (2 * Array.length old) 0 in
  Array.iter
    (fun id ->
      if id <> 0 then
        slots.(slot g slots (Vec.get g.c0 id) (Vec.get g.c1 id) (Vec.get g.c2 id)) <- id)
    old;
  g.strash <- slots

(* Both sort their operands into (lo, mid, hi) with integer operations, so
   neither allocates unless [lookup] returns [Some]. *)
let maj g a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  let mid = a + b + c - lo - hi in
  let r = reduce lo mid hi in
  if r <> no_reduction then r
  else begin
    let i = slot g g.strash lo mid hi in
    let id = g.strash.(i) in
    if id <> 0 then signal id false
    else begin
      let id = new_node g tag_maj lo mid hi in
      g.strash.(i) <- id;
      g.strash_count <- g.strash_count + 1;
      if 2 * g.strash_count > Array.length g.strash then grow_strash g;
      signal id false
    end
  end

let lookup ?(below = max_int) g a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  let mid = a + b + c - lo - hi in
  let r = reduce lo mid hi in
  if r <> no_reduction then Some r
  else begin
    let id = g.strash.(slot g g.strash lo mid hi) in
    if id <> 0 && id < below then Some (signal id false) else None
  end

let and_ g a b = maj g a b false_
let or_ g a b = maj g a b true_
let xor g a b = or_ g (and_ g a (not_ b)) (and_ g (not_ a) b)
let mux g s a b = or_ g (and_ g s a) (and_ g (not_ s) b)

let add_output g name s = ignore (Vec.push g.outs (name, s))

(* {1 Inspection} *)

let num_nodes g = Vec.length g.tag
let num_inputs g = Vec.length g.input_names
let num_outputs g = Vec.length g.outs

let kind g id =
  let tag = Vec.get g.tag id in
  if tag = tag_const then Const
  else if tag = tag_input then Input (Vec.get g.c0 id)
  else Maj (Vec.get g.c0 id, Vec.get g.c1 id, Vec.get g.c2 id)

let is_maj g id = Vec.get g.tag id = tag_maj

let child g id i =
  if not (is_maj g id) then invalid_arg "Mig.child: not a majority node";
  match i with
  | 0 -> Vec.get g.c0 id
  | 1 -> Vec.get g.c1 id
  | 2 -> Vec.get g.c2 id
  | _ -> invalid_arg "Mig.child: position not in 0..2"

let input_name g pi = Vec.get g.input_names pi
let input_signal g pi = signal (Vec.get g.input_nodes pi) false
let output g i = Vec.get g.outs i
let outputs g = Vec.to_array g.outs
let input_names g = Vec.to_array g.input_names

let reachable g =
  let n = num_nodes g in
  let mark = Array.make n false in
  Vec.iter (fun (_, s) -> mark.(node_of s) <- true) g.outs;
  for id = n - 1 downto 0 do
    if mark.(id) && Vec.get g.tag id = tag_maj then begin
      mark.(node_of (Vec.get g.c0 id)) <- true;
      mark.(node_of (Vec.get g.c1 id)) <- true;
      mark.(node_of (Vec.get g.c2 id)) <- true
    end
  done;
  mark

let mark_of g = function Some mark -> mark | None -> reachable g

let iter_marked_maj mark g f =
  for id = 0 to num_nodes g - 1 do
    if mark.(id) && Vec.get g.tag id = tag_maj then f id
  done

let iter_reachable_maj g f = iter_marked_maj (reachable g) g f

(* Inputs at ids 1..k in PI order, so every id above k is a majority
   node, and each of those is live. *)
let is_compact ?reachable:mark g =
  let mark = mark_of g mark in
  let k = num_inputs g in
  let rec inputs_first pi =
    pi >= k || (Vec.get g.input_nodes pi = pi + 1 && inputs_first (pi + 1))
  in
  let rec all_live id = id >= num_nodes g || (mark.(id) && all_live (id + 1)) in
  inputs_first 0 && all_live (k + 1)

let size g =
  let n = ref 0 in
  iter_reachable_maj g (fun _ -> incr n);
  !n

let num_complemented_edges g =
  let n = ref 0 in
  iter_reachable_maj g (fun id ->
      let count s = if is_complemented s && not (is_const s) then incr n in
      count (Vec.get g.c0 id);
      count (Vec.get g.c1 id);
      count (Vec.get g.c2 id));
  !n

let levels g =
  let n = num_nodes g in
  let lv = Array.make n 0 in
  for id = 0 to n - 1 do
    if Vec.get g.tag id = tag_maj then begin
      let l s = lv.(node_of s) in
      lv.(id) <-
        1 + max (l (Vec.get g.c0 id)) (max (l (Vec.get g.c1 id)) (l (Vec.get g.c2 id)))
    end
  done;
  lv

let depth g =
  let lv = levels g in
  Vec.fold_left (fun acc (_, s) -> max acc lv.(node_of s)) 0 g.outs

let fanout_counts ?reachable:mark g =
  let counts = Array.make (num_nodes g) 0 in
  iter_marked_maj (mark_of g mark) g (fun id ->
      let bump s = counts.(node_of s) <- counts.(node_of s) + 1 in
      bump (Vec.get g.c0 id);
      bump (Vec.get g.c1 id);
      bump (Vec.get g.c2 id));
  counts

let output_refs g =
  let refs = Array.make (num_nodes g) 0 in
  Vec.iter (fun (_, s) -> refs.(node_of s) <- refs.(node_of s) + 1) g.outs;
  refs

let fanouts g =
  let lists = Array.make (num_nodes g) [] in
  iter_reachable_maj g (fun id ->
      let add s =
        let c = node_of s in
        match lists.(c) with
        | parent :: _ when parent = id -> () (* children are distinct after Ω.M *)
        | l -> lists.(c) <- id :: l
      in
      add (Vec.get g.c0 id);
      add (Vec.get g.c1 id);
      add (Vec.get g.c2 id));
  Array.map (fun l -> Array.of_list (List.rev l)) lists

(* {1 Evaluation} *)

let node_values g pi_values =
  if Array.length pi_values <> num_inputs g then
    invalid_arg "Mig.node_values: input arity mismatch";
  let n = num_nodes g in
  let values = Array.make n false in
  let value_of s = values.(node_of s) <> is_complemented s in
  for id = 0 to n - 1 do
    let tag = Vec.get g.tag id in
    if tag = tag_input then values.(id) <- pi_values.(Vec.get g.c0 id)
    else if tag = tag_maj then begin
      let a = value_of (Vec.get g.c0 id)
      and b = value_of (Vec.get g.c1 id)
      and c = value_of (Vec.get g.c2 id) in
      values.(id) <- (a && b) || (a && c) || (b && c)
    end
  done;
  values

let eval g pi_values =
  let values = node_values g pi_values in
  Array.map
    (fun (_, s) -> values.(node_of s) <> is_complemented s)
    (Vec.to_array g.outs)

let output_tables g =
  let ni = num_inputs g in
  if ni > Truth_table.max_vars then
    invalid_arg "Mig.output_tables: too many inputs for exhaustive tables";
  let n = num_nodes g in
  let tables = Array.make n (Truth_table.const_ ni false) in
  let mark = reachable g in
  Vec.iteri (fun pi id -> tables.(id) <- Truth_table.var ni pi) g.input_nodes;
  for id = 0 to n - 1 do
    if mark.(id) && Vec.get g.tag id = tag_maj then begin
      let table_of s =
        let tt = tables.(node_of s) in
        if is_complemented s then Truth_table.not_ tt else tt
      in
      tables.(id) <-
        Truth_table.maj
          (table_of (Vec.get g.c0 id))
          (table_of (Vec.get g.c1 id))
          (table_of (Vec.get g.c2 id))
    end
  done;
  Array.map
    (fun (_, s) ->
      let tt = tables.(node_of s) in
      if is_complemented s then Truth_table.not_ tt else tt)
    (Vec.to_array g.outs)

(* {1 Copying} *)

let map_rebuild ?reachable:mark g ~rule =
  let g' = create_sized ~nodes:(num_nodes g) () in
  let map = Array.make (num_nodes g) false_ in
  Vec.iteri
    (fun pi id -> map.(id) <- push_input g' (Vec.get g.input_names pi))
    g.input_nodes;
  let remap s =
    let m = map.(node_of s) in
    if is_complemented s then not_ m else m
  in
  iter_marked_maj (mark_of g mark) g (fun id ->
      let a = remap (Vec.get g.c0 id)
      and b = remap (Vec.get g.c1 id)
      and c = remap (Vec.get g.c2 id) in
      map.(id) <- rule g' ~old_id:id a b c);
  Vec.iter (fun (name, s) -> add_output g' name (remap s)) g.outs;
  g'

let cleanup g = map_rebuild g ~rule:(fun g' ~old_id:_ a b c -> maj g' a b c)

let copy g = cleanup g
