module Vec = Plim_util.Vec
module Truth_table = Plim_logic.Truth_table

type signal = int
(* packed: node id * 2 + (1 if complemented) *)

type node_kind =
  | Const
  | Input of int
  | Maj of signal * signal * signal

type node_tag = Tag_const | Tag_input | Tag_maj

type strash = {
  mutable slots : int array;
  (* open-addressed: majority node ids, each keyed on its own (c0, c1,
     c2); 0 (the constant's id) marks an empty slot.  The length is a
     power of two, doubled before more than half the slots fill, so probes
     stay short. *)
  mutable count : int; (* full slots: the majority node count *)
}

type io = {
  input_names : string Vec.t;
  input_nodes : int Vec.t; (* PI index -> node id *)
  outs : (string * signal) Vec.t;
  names : (string, unit) Hashtbl.t;
  (* the names of the first [named] inputs: [push_input] does not index
     its name, [add_input] catches up before it checks *)
  mutable named : int;
}

(* One plain array per field, indexed by node id, owned here and grown by
   doubling: a [Vec.t] would cost an out-of-line call per read, since
   nothing inlines across modules under [-opaque].  Separate arrays rather
   than one interleaved 4-word-per-node array, which measurably raised
   peak heap over a recipe's passes.  Slots at [len] and above are spare
   capacity.  The interface exposes the record [private], so rewriting
   reads a node's fields with no call. *)
type t = {
  mutable tag : node_tag array;
  mutable c0 : signal array; (* maj: sorted child signals / input: PI index *)
  mutable c1 : signal array;
  mutable c2 : signal array;
  mutable len : int; (* allocated nodes, the constant included *)
  strash : strash;
  io : io;
}

(* {1 Signals} *)

let signal node complemented = (node lsl 1) lor (if complemented then 1 else 0)
let node_of s = s lsr 1
let is_complemented s = s land 1 = 1
let not_ s = s lxor 1
let false_ = signal 0 false
let true_ = signal 0 true
let is_const s = node_of s = 0

(* {1 Construction} *)

(* The smallest power of two of at least [2 * nodes] slots, and at least
   256. *)
let strash_slots nodes =
  let rec pow2 n = if n >= 2 * nodes then n else pow2 (2 * n) in
  pow2 256

(* An empty graph with node arrays for [nodes] nodes and the strash
   [strash]. *)
let empty ~nodes strash =
  let capacity = max 16 nodes in
  let field () = Array.make capacity 0 in
  (* node 0, the constant, is Tag_const with zero children *)
  { tag = Array.make capacity Tag_const;
    c0 = field ();
    c1 = field ();
    c2 = field ();
    len = 1;
    strash;
    io =
      { input_names = Vec.create ~dummy:"" ();
        input_nodes = Vec.create ~dummy:0 ();
        outs = Vec.create ~dummy:("", 0) ();
        names = Hashtbl.create 16;
        named = 0 } }

(* [nodes] sizes the node arrays and the strash up front, so a rebuild
   never regrows or rehashes them. *)
let create_sized ?(nodes = 0) () =
  empty ~nodes { slots = Array.make (strash_slots nodes) 0; count = 0 }

let create () = create_sized ()

(* The strash holds ids only, and [probe] reads the children of those ids
   from the graph it is called on, so it serves whichever graph last
   filled it. *)
let create_twin ~nodes g = empty ~nodes g.strash

let grow_nodes g =
  let grow a =
    let a' = Array.make (2 * Array.length a) a.(0) in
    Array.blit a 0 a' 0 g.len;
    a'
  in
  g.tag <- grow g.tag;
  g.c0 <- grow g.c0;
  g.c1 <- grow g.c1;
  g.c2 <- grow g.c2

let new_node g tag c0 c1 c2 =
  if g.len = Array.length g.tag then grow_nodes g;
  let id = g.len in
  g.tag.(id) <- tag;
  g.c0.(id) <- c0;
  g.c1.(id) <- c1;
  g.c2.(id) <- c2;
  g.len <- id + 1;
  id

(* Names are not checked: the caller knows they are unique. *)
let push_input g name =
  let pi = Vec.push g.io.input_names name in
  let id = new_node g Tag_input pi 0 0 in
  ignore (Vec.push g.io.input_nodes id);
  signal id false

let add_input g name =
  let io = g.io in
  for pi = io.named to Vec.length io.input_names - 1 do
    Hashtbl.replace io.names (Vec.get io.input_names pi) ()
  done;
  io.named <- Vec.length io.input_names;
  if Hashtbl.mem io.names name then
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
  if id = 0 || (g.c0.(id) = a && g.c1.(id) = b && g.c2.(id) = c)
  then i
  else probe g slots mask a b c ((i + 1) land mask)

let slot g slots a b c =
  let mask = Array.length slots - 1 in
  probe g slots mask a b c (hash3 a b c land mask)

let grow_strash g =
  let old = g.strash.slots in
  let slots = Array.make (2 * Array.length old) 0 in
  Array.iter
    (fun id ->
      if id <> 0 then
        slots.(slot g slots g.c0.(id) g.c1.(id) g.c2.(id)) <- id)
    old;
  g.strash.slots <- slots

(* Both sort their operands into (lo, mid, hi) with integer operations, so
   neither allocates unless [lookup] returns [Some]. *)
let maj g a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  let mid = a + b + c - lo - hi in
  let r = reduce lo mid hi in
  if r <> no_reduction then r
  else begin
    let i = slot g g.strash.slots lo mid hi in
    let id = g.strash.slots.(i) in
    if id <> 0 then signal id false
    else begin
      let id = new_node g Tag_maj lo mid hi in
      g.strash.slots.(i) <- id;
      g.strash.count <- g.strash.count + 1;
      if 2 * g.strash.count > Array.length g.strash.slots then grow_strash g;
      signal id false
    end
  end

let lookup ~below g a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  let mid = a + b + c - lo - hi in
  let r = reduce lo mid hi in
  if r <> no_reduction then Some r
  else begin
    let id = g.strash.slots.(slot g g.strash.slots lo mid hi) in
    if id <> 0 && id < below then Some (signal id false) else None
  end

let and_ g a b = maj g a b false_
let or_ g a b = maj g a b true_
let xor g a b = or_ g (and_ g a (not_ b)) (and_ g (not_ a) b)
let mux g s a b = or_ g (and_ g s a) (and_ g (not_ s) b)

let add_output g name s = ignore (Vec.push g.io.outs (name, s))

(* {1 Inspection} *)

let num_nodes g = g.len
let num_inputs g = Vec.length g.io.input_names
let num_outputs g = Vec.length g.io.outs

let check_id fn g id =
  if id < 0 || id >= g.len then
    invalid_arg (Printf.sprintf "Mig.%s: node id %d out of range (num_nodes %d)" fn id g.len)

let kind g id =
  check_id "kind" g id;
  let tag = g.tag.(id) in
  if tag = Tag_const then Const
  else if tag = Tag_input then Input g.c0.(id)
  else Maj (g.c0.(id), g.c1.(id), g.c2.(id))

let is_maj g id =
  check_id "is_maj" g id;
  g.tag.(id) = Tag_maj

let child g id i =
  check_id "child" g id;
  if g.tag.(id) <> Tag_maj then invalid_arg "Mig.child: not a majority node";
  match i with
  | 0 -> g.c0.(id)
  | 1 -> g.c1.(id)
  | 2 -> g.c2.(id)
  | _ -> invalid_arg "Mig.child: position not in 0..2"

let input_name g pi = Vec.get g.io.input_names pi
let input_signal g pi = signal (Vec.get g.io.input_nodes pi) false
let output g i = Vec.get g.io.outs i
let outputs g = Vec.to_array g.io.outs
let input_names g = Vec.to_array g.io.input_names

let reachable g =
  let n = num_nodes g in
  let mark = Array.make n false in
  Vec.iter (fun (_, s) -> mark.(node_of s) <- true) g.io.outs;
  for id = n - 1 downto 0 do
    if mark.(id) && g.tag.(id) = Tag_maj then begin
      mark.(node_of g.c0.(id)) <- true;
      mark.(node_of g.c1.(id)) <- true;
      mark.(node_of g.c2.(id)) <- true
    end
  done;
  mark

let mark_of g = function Some mark -> mark | None -> reachable g

let iter_marked_maj mark g f =
  for id = 0 to num_nodes g - 1 do
    if mark.(id) && g.tag.(id) = Tag_maj then f id
  done

let iter_reachable_maj g f = iter_marked_maj (reachable g) g f

let size g =
  let n = ref 0 in
  iter_reachable_maj g (fun _ -> incr n);
  !n

let num_complemented_edges g =
  let n = ref 0 in
  iter_reachable_maj g (fun id ->
      let count s = if is_complemented s && not (is_const s) then incr n in
      count g.c0.(id);
      count g.c1.(id);
      count g.c2.(id));
  !n

let levels g =
  let n = num_nodes g in
  let lv = Array.make n 0 in
  for id = 0 to n - 1 do
    if g.tag.(id) = Tag_maj then begin
      let l s = lv.(node_of s) in
      lv.(id) <-
        1 + max (l g.c0.(id)) (max (l g.c1.(id)) (l g.c2.(id)))
    end
  done;
  lv

let depth g =
  let lv = levels g in
  Vec.fold_left (fun acc (_, s) -> max acc lv.(node_of s)) 0 g.io.outs

let fanout_counts g =
  let mark = reachable g in
  let counts = Array.make g.len 0 in
  let bump s = counts.(node_of s) <- counts.(node_of s) + 1 in
  for id = 0 to g.len - 1 do
    if mark.(id) && g.tag.(id) = Tag_maj then begin
      bump g.c0.(id);
      bump g.c1.(id);
      bump g.c2.(id)
    end
  done;
  counts

let output_refs g =
  let refs = Array.make (num_nodes g) 0 in
  Vec.iter (fun (_, s) -> refs.(node_of s) <- refs.(node_of s) + 1) g.io.outs;
  refs

let sweep_into g ~reachable:mark ~refs =
  let n = g.len in
  if Array.length mark < n || Array.length refs < n then
    invalid_arg "Mig.sweep_into: arrays shorter than num_nodes";
  Array.fill mark 0 n false;
  Array.fill refs 0 n 0;
  let touch s =
    let id = node_of s in
    mark.(id) <- true;
    refs.(id) <- refs.(id) + 1
  in
  Vec.iter (fun (_, s) -> touch s) g.io.outs;
  (* children precede parents, so a node's mark is final when the
     descending walk reaches it *)
  let k = num_inputs g in
  let live_above_inputs = ref true in
  for id = n - 1 downto 1 do
    if mark.(id) then begin
      if g.tag.(id) = Tag_maj then begin
        touch g.c0.(id);
        touch g.c1.(id);
        touch g.c2.(id)
      end
    end
    else if id > k then live_above_inputs := false
  done;
  (* compact: inputs at ids 1..k in PI order, so every id above k is a
     majority node, and each of those is live *)
  let rec inputs_first pi =
    pi >= k || (Vec.get g.io.input_nodes pi = pi + 1 && inputs_first (pi + 1))
  in
  !live_above_inputs && inputs_first 0

let is_compact g =
  sweep_into g ~reachable:(Array.make g.len false) ~refs:(Array.make g.len 0)

let fanouts g =
  let lists = Array.make (num_nodes g) [] in
  iter_reachable_maj g (fun id ->
      let add s =
        let c = node_of s in
        match lists.(c) with
        | parent :: _ when parent = id -> () (* children are distinct after Ω.M *)
        | l -> lists.(c) <- id :: l
      in
      add g.c0.(id);
      add g.c1.(id);
      add g.c2.(id));
  Array.map (fun l -> Array.of_list (List.rev l)) lists

(* {1 Evaluation} *)

let node_values g pi_values =
  if Array.length pi_values <> num_inputs g then
    invalid_arg "Mig.node_values: input arity mismatch";
  let n = num_nodes g in
  let values = Array.make n false in
  let value_of s = values.(node_of s) <> is_complemented s in
  for id = 0 to n - 1 do
    let tag = g.tag.(id) in
    if tag = Tag_input then values.(id) <- pi_values.(g.c0.(id))
    else if tag = Tag_maj then begin
      let a = value_of g.c0.(id)
      and b = value_of g.c1.(id)
      and c = value_of g.c2.(id) in
      values.(id) <- (a && b) || (a && c) || (b && c)
    end
  done;
  values

let eval g pi_values =
  let values = node_values g pi_values in
  Array.map
    (fun (_, s) -> values.(node_of s) <> is_complemented s)
    (Vec.to_array g.io.outs)

let output_tables g =
  let ni = num_inputs g in
  if ni > Truth_table.max_vars then
    invalid_arg "Mig.output_tables: too many inputs for exhaustive tables";
  let n = num_nodes g in
  let tables = Array.make n (Truth_table.const_ ni false) in
  let mark = reachable g in
  Vec.iteri (fun pi id -> tables.(id) <- Truth_table.var ni pi) g.io.input_nodes;
  for id = 0 to n - 1 do
    if mark.(id) && g.tag.(id) = Tag_maj then begin
      let table_of s =
        let tt = tables.(node_of s) in
        if is_complemented s then Truth_table.not_ tt else tt
      in
      tables.(id) <-
        Truth_table.maj
          (table_of g.c0.(id))
          (table_of g.c1.(id))
          (table_of g.c2.(id))
    end
  done;
  Array.map
    (fun (_, s) ->
      let tt = tables.(node_of s) in
      if is_complemented s then Truth_table.not_ tt else tt)
    (Vec.to_array g.io.outs)

(* {1 Copying} *)

(* Empties [g] for a rebuild of [nodes] nodes: node arrays and strash too
   small for them are replaced, larger ones are kept.  The ids a graph
   gets do not depend on either size, so a reset graph numbers its nodes
   as [create ()] would. *)
let reset g ~nodes =
  if Array.length g.tag < nodes then begin
    g.tag <- Array.make nodes Tag_const;
    g.c0 <- Array.make nodes 0;
    g.c1 <- Array.make nodes 0;
    g.c2 <- Array.make nodes 0
  end;
  g.len <- 1;
  let st = g.strash in
  if Array.length st.slots < strash_slots nodes then
    st.slots <- Array.make (strash_slots nodes) 0
  else if st.count > 0 then Array.fill st.slots 0 (Array.length st.slots) 0;
  st.count <- 0;
  let io = g.io in
  Vec.clear io.input_names;
  Vec.clear io.input_nodes;
  Vec.clear io.outs;
  if io.named > 0 then Hashtbl.reset io.names;
  io.named <- 0

let rebuild_into ?reachable:mark ~map g ~into ~rule =
  if into == g then invalid_arg "Mig.rebuild_into: target is the source";
  if Array.length map < g.len then invalid_arg "Mig.rebuild_into: map too short";
  let mark = mark_of g mark in
  reset into ~nodes:g.len;
  map.(0) <- false_;
  Vec.iteri
    (fun pi id -> map.(id) <- push_input into (Vec.get g.io.input_names pi))
    g.io.input_nodes;
  (* a signal's image: its node's image, complemented with it *)
  let remap s = map.(node_of s) lxor (s land 1) in
  for id = 0 to g.len - 1 do
    if mark.(id) && g.tag.(id) = Tag_maj then
      map.(id) <-
        rule into ~old_id:id (remap g.c0.(id)) (remap g.c1.(id)) (remap g.c2.(id))
  done;
  Vec.iter (fun (name, s) -> add_output into name (remap s)) g.io.outs

let map_rebuild g ~rule =
  let into = create_sized ~nodes:g.len () in
  rebuild_into ~map:(Array.make g.len false_) g ~into ~rule;
  into

let cleanup ?reachable ?map g =
  let mark = mark_of g reachable in
  let live = ref (1 + num_inputs g) in
  iter_marked_maj mark g (fun _ -> incr live);
  let into = create_sized ~nodes:!live () in
  let map = match map with Some m -> m | None -> Array.make g.len false_ in
  rebuild_into ~reachable:mark ~map g ~into ~rule:(fun g' ~old_id:_ a b c -> maj g' a b c);
  into
