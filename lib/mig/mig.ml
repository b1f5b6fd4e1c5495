module Vec = Plim_util.Vec
module Truth_table = Plim_logic.Truth_table

type signal = int
(* packed: node id * 2 + (1 if complemented) *)

type node_kind =
  | Const
  | Input of int
  | Maj of signal * signal * signal

type strash = {
  mutable slots : Bytes.t;
  (* open-addressed: majority node ids, 4 bytes each (half the table an
     [int array] would take, so more of it stays in cache), each keyed on
     its own (c0, c1, c2); 0 (the constant's id) marks an empty slot.  The
     slot count is a power of two, doubled before more than half the slots
     fill, so probes stay short.  Empty (no slot at all) while the graph
     has no table: one is built at the first [maj] that needs it. *)
  mutable count : int; (* full slots: the majority node count *)
}

(* A slot read or written through the 32-bit primitives stays unboxed: the
   [int32] between the primitive and the conversion is never allocated.
   Ids fit, as [max_nodes] keeps every id below [2^31 - 1]. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] slot_id slots i = Int32.to_int (get32 slots (4 * i))
let[@inline] set_slot slots i id = set32 slots (4 * i) (Int32.of_int id)
let num_slots slots = Bytes.length slots / 4

type io = {
  input_names : string Vec.t;
  input_nodes : int Vec.t; (* PI index -> node id *)
  outs : (string * signal) Vec.t;
  names : (string, unit) Hashtbl.t;
  (* the names of the first [named] inputs: [push_input] does not index
     its name, [add_input] catches up before it checks *)
  mutable named : int;
}

(* One 12-byte record per node, at byte [12 * id] of [nodes]: the words
   c0, c1 and c2, read unsigned, so a signal may reach [2^32 - 3].  A
   majority node keeps its sorted children there, an input its PI index
   in c0 and zeros, and node 0, the constant, zeros.  No tag is stored:
   after Ω.M a majority node's children are distinct, so [c1 <> c2] tells
   it from the constant and the inputs.  The GC does not scan a
   [Bytes.t].  Records at [len] and above are spare capacity, grown by
   doubling.  The
   interface exposes the record [private], so rewriting reads a node's
   words with no call.  A [view] (see [index]) shares another graph's
   [nodes] and [io], so nothing may write it. *)
type t = {
  mutable nodes : Bytes.t;
  mutable len : int; (* allocated nodes, the constant included *)
  strash : strash;
  io : io;
  view : bool;
}

let record_bytes = 12

(* The interface's unchecked coercion, for readers of [nodes]. *)
external signal_of_word : int -> signal = "%identity"

let[@inline] word nodes off = Int32.to_int (get32 nodes off) land 0xFFFF_FFFF
let[@inline] c0 g id = word g.nodes (record_bytes * id)
let[@inline] c1 g id = word g.nodes ((record_bytes * id) + 4)
let[@inline] c2 g id = word g.nodes ((record_bytes * id) + 8)

(* Node [id] is a majority node: only there do c1 and c2 differ. *)
let[@inline] maj_id g id = c1 g id <> c2 g id
let capacity g = Bytes.length g.nodes / record_bytes
let node_store nodes = Bytes.make (record_bytes * nodes) '\000'

(* {1 Signals} *)

let signal node complemented = (node lsl 1) lor (if complemented then 1 else 0)
let node_of s = s lsr 1
let is_complemented s = s land 1 = 1
let not_ s = s lxor 1
let false_ = signal 0 false
let true_ = signal 0 true
let is_const s = node_of s = 0

(* {1 Construction} *)

let max_nodes = 0x7FFF_FFFF (* 2^31 - 1: ids below it fit a strash slot *)

let check_nodes fn nodes =
  if nodes > max_nodes then
    invalid_arg (Printf.sprintf "%s: %d nodes exceed the limit of %d" fn nodes max_nodes)

(* The table's length in bytes for [nodes] nodes: the smallest power of
   two of at least [2 * nodes] slots, and at least 256. *)
let strash_bytes nodes =
  let rec pow2 n = if n >= 2 * nodes then n else pow2 (2 * n) in
  4 * pow2 256

(* An empty graph with node records for [nodes] nodes and the strash
   [strash]. *)
let empty ~nodes strash =
  (* node 0, the constant, is the zero record *)
  { nodes = node_store (max 16 nodes);
    len = 1;
    strash;
    io =
      { input_names = Vec.create ~dummy:"" ();
        input_nodes = Vec.create ~dummy:0 ();
        outs = Vec.create ~dummy:("", 0) ();
        names = Hashtbl.create 16;
        named = 0 };
    view = false }

(* [nodes] sizes the node records up front, and with them the strash the
   first [maj] builds, so a build of that many nodes never regrows or
   rehashes them. *)
let create_sized ?(nodes = 0) () =
  check_nodes "Mig.create_sized" nodes;
  empty ~nodes { slots = Bytes.empty; count = 0 }

let create () = create_sized ()

(* The strash holds ids only, and [probe] reads the children of those ids
   from the graph it is called on, so it serves whichever graph last
   filled it. *)
let create_twin ~nodes g =
  check_nodes "Mig.create_twin" nodes;
  empty ~nodes g.strash

let check_writable fn g = if g.view then invalid_arg (fn ^ ": the graph is a read-only view")

let grow_nodes g =
  check_nodes "Mig" (g.len + 1);
  let nodes = node_store (min (2 * capacity g) max_nodes) in
  Bytes.blit g.nodes 0 nodes 0 (record_bytes * g.len);
  g.nodes <- nodes

let new_node g a b c =
  check_writable "Mig" g;
  if g.len = capacity g then grow_nodes g;
  let id = g.len and nodes = g.nodes in
  let off = record_bytes * id in
  set32 nodes off (Int32.of_int a);
  set32 nodes (off + 4) (Int32.of_int b);
  set32 nodes (off + 8) (Int32.of_int c);
  g.len <- id + 1;
  id

(* Names are not checked: the caller knows they are unique. *)
let push_input g name =
  let pi = Vec.push g.io.input_names name in
  let id = new_node g pi 0 0 in
  ignore (Vec.push g.io.input_nodes id);
  signal id false

let add_input g name =
  check_writable "Mig.add_input" g;
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
  let id = slot_id slots i in
  if id = 0 || (c0 g id = a && c1 g id = b && c2 g id = c)
  then i
  else probe g slots mask a b c ((i + 1) land mask)

let slot g slots a b c =
  let mask = num_slots slots - 1 in
  probe g slots mask a b c (hash3 a b c land mask)

let grow_strash g =
  let old = g.strash.slots in
  let slots = Bytes.make (2 * Bytes.length old) '\000' in
  for i = 0 to num_slots old - 1 do
    let id = slot_id old i in
    if id <> 0 then set_slot slots (slot g slots (c0 g id) (c1 g id) (c2 g id)) id
  done;
  g.strash.slots <- slots

(* Empties [st] into a table of at least [strash_bytes nodes] bytes: one
   too small is replaced, a larger one kept. *)
let clear_strash st ~nodes =
  let bytes = strash_bytes nodes in
  if Bytes.length st.slots < bytes then st.slots <- Bytes.make bytes '\000'
  else if st.count > 0 then Bytes.fill st.slots 0 (Bytes.length st.slots) '\000';
  st.count <- 0

(* Fills [g]'s strash, sized for [nodes] nodes (at least [g]'s), with
   [g]'s majority nodes.  A graph holds no two majority nodes on one
   child triple, so each insert finds an empty slot. *)
let index_nodes g ~nodes =
  let st = g.strash in
  clear_strash st ~nodes:(max nodes g.len);
  let slots = st.slots in
  for id = 1 to g.len - 1 do
    if maj_id g id then set_slot slots (slot g slots (c0 g id) (c1 g id) (c2 g id)) id
  done;
  st.count <- g.len - 1 - Vec.length g.io.input_names

(* Both sort their operands into (lo, mid, hi) with integer operations, so
   neither allocates unless [lookup] returns [Some]. *)
let maj g a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  let mid = a + b + c - lo - hi in
  let r = reduce lo mid hi in
  if r <> no_reduction then r
  else begin
    let st = g.strash in
    if Bytes.length st.slots = 0 then index_nodes g ~nodes:(capacity g);
    let i = slot g st.slots lo mid hi in
    let id = slot_id st.slots i in
    if id <> 0 then signal id false
    else begin
      let id = new_node g lo mid hi in
      set_slot st.slots i id;
      st.count <- st.count + 1;
      if 2 * st.count > num_slots st.slots then grow_strash g;
      signal id false
    end
  end

let lookup ~below g a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  let mid = a + b + c - lo - hi in
  let r = reduce lo mid hi in
  if r <> no_reduction then Some r
  else begin
    let slots = g.strash.slots in
    if Bytes.length slots > 0 then begin
      let id = slot_id slots (slot g slots lo mid hi) in
      if id <> 0 && id < below then Some (signal id false) else None
    end
    else if g.len = 1 + Vec.length g.io.input_names then None (* no majority node *)
    else invalid_arg "Mig.lookup: the graph has no structural hash"
  end

let and_ g a b = maj g a b false_
let or_ g a b = maj g a b true_
let xor g a b = or_ g (and_ g a (not_ b)) (and_ g (not_ a) b)
let mux g s a b = or_ g (and_ g s a) (and_ g (not_ s) b)

let add_output g name s =
  check_writable "Mig.add_output" g;
  ignore (Vec.push g.io.outs (name, s))

let drop_strash g =
  g.strash.slots <- Bytes.empty;
  g.strash.count <- 0

let index g ~twin =
  let view = { g with strash = twin.strash; view = true } in
  index_nodes view ~nodes:(capacity twin);
  view

(* {1 Inspection} *)

let num_nodes g = g.len
let num_inputs g = Vec.length g.io.input_names
let num_outputs g = Vec.length g.io.outs

let check_id fn g id =
  if id < 0 || id >= g.len then
    invalid_arg (Printf.sprintf "Mig.%s: node id %d out of range (num_nodes %d)" fn id g.len)

let kind g id =
  check_id "kind" g id;
  if id = 0 then Const
  else if maj_id g id then Maj (c0 g id, c1 g id, c2 g id)
  else Input (c0 g id)

let is_maj g id =
  check_id "is_maj" g id;
  maj_id g id

let child g id i =
  check_id "child" g id;
  if not (maj_id g id) then invalid_arg "Mig.child: not a majority node";
  match i with
  | 0 -> c0 g id
  | 1 -> c1 g id
  | 2 -> c2 g id
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
    if mark.(id) && maj_id g id then begin
      mark.(node_of (c0 g id)) <- true;
      mark.(node_of (c1 g id)) <- true;
      mark.(node_of (c2 g id)) <- true
    end
  done;
  mark

let mark_of g = function Some mark -> mark | None -> reachable g

let iter_marked_maj mark g f =
  for id = 0 to num_nodes g - 1 do
    if mark.(id) && maj_id g id then f id
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
      count (c0 g id);
      count (c1 g id);
      count (c2 g id));
  !n

let levels g =
  let n = num_nodes g in
  let lv = Array.make n 0 in
  for id = 0 to n - 1 do
    if maj_id g id then begin
      let l s = lv.(node_of s) in
      lv.(id) <-
        1 + max (l (c0 g id)) (max (l (c1 g id)) (l (c2 g id)))
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
    if mark.(id) && maj_id g id then begin
      bump (c0 g id);
      bump (c1 g id);
      bump (c2 g id)
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
      if maj_id g id then begin
        touch (c0 g id);
        touch (c1 g id);
        touch (c2 g id)
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
      add (c0 g id);
      add (c1 g id);
      add (c2 g id));
  Array.map (fun l -> Array.of_list (List.rev l)) lists

(* {1 Evaluation} *)

let eval g pi_values =
  if Array.length pi_values <> num_inputs g then
    invalid_arg "Mig.eval: input arity mismatch";
  let n = num_nodes g in
  let values = Array.make n false in
  let value_of s = values.(node_of s) <> is_complemented s in
  for id = 0 to n - 1 do
    if maj_id g id then begin
      let a = value_of (c0 g id)
      and b = value_of (c1 g id)
      and c = value_of (c2 g id) in
      values.(id) <- (a && b) || (a && c) || (b && c)
    end
    else if id > 0 then values.(id) <- pi_values.(c0 g id)
  done;
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
    if mark.(id) && maj_id g id then begin
      let table_of s =
        let tt = tables.(node_of s) in
        if is_complemented s then Truth_table.not_ tt else tt
      in
      tables.(id) <-
        Truth_table.maj
          (table_of (c0 g id))
          (table_of (c1 g id))
          (table_of (c2 g id))
    end
  done;
  Array.map
    (fun (_, s) ->
      let tt = tables.(node_of s) in
      if is_complemented s then Truth_table.not_ tt else tt)
    (Vec.to_array g.io.outs)

(* {1 Copying} *)

(* Empties [g] for a rebuild of [nodes] nodes: node records too small for
   them are replaced, larger ones kept, and the strash is emptied into a
   table sized for the records (kept when large enough).  The ids a graph
   gets do not depend on either size, so a reset graph numbers its nodes
   as [create ()] would. *)
let reset g ~nodes =
  check_writable "Mig.rebuild_into" g;
  if capacity g < nodes then g.nodes <- node_store nodes;
  g.len <- 1;
  clear_strash g.strash ~nodes:(capacity g);
  let io = g.io in
  Vec.clear io.input_names;
  Vec.clear io.input_nodes;
  Vec.clear io.outs;
  if io.named > 0 then Hashtbl.reset io.names;
  io.named <- 0

(* Copies the inputs, the reachable majority nodes (as [rule] rebuilds
   them) and the outputs of [g] into the empty graph [into]. *)
let copy_into mark ~map g ~into ~rule =
  map.(0) <- false_;
  Vec.iteri
    (fun pi id -> map.(id) <- push_input into (Vec.get g.io.input_names pi))
    g.io.input_nodes;
  (* a signal's image: its node's image, complemented with it *)
  let remap s = map.(node_of s) lxor (s land 1) in
  for id = 0 to g.len - 1 do
    if mark.(id) && maj_id g id then
      map.(id) <-
        rule into ~old_id:id (remap (c0 g id)) (remap (c1 g id)) (remap (c2 g id))
  done;
  Vec.iter (fun (name, s) -> add_output into name (remap s)) g.io.outs

let rebuild_into ?reachable:mark ~map g ~into ~rule =
  if into == g then invalid_arg "Mig.rebuild_into: target is the source";
  if Array.length map < g.len then invalid_arg "Mig.rebuild_into: map too short";
  let mark = mark_of g mark in
  reset into ~nodes:g.len;
  copy_into mark ~map g ~into ~rule

(* [maj] without the strash, for [cleanup]: the map sends live nodes to
   distinct nodes and never complements, so the images of a node's three
   distinct children are three distinct nodes, and no two live nodes share
   a child triple.  So no Ω.M reduction and no existing node can answer;
   only the order of the children may change, where the map is not
   monotone (an input declared after a majority node moves below it). *)
let append g ~old_id:_ a b c =
  let lo = min_signal a (min_signal b c) and hi = max_signal a (max_signal b c) in
  signal (new_node g lo (a + b + c - lo - hi) hi) false

let cleanup ?reachable ?map g =
  let mark = mark_of g reachable in
  let live = ref (1 + num_inputs g) in
  iter_marked_maj mark g (fun _ -> incr live);
  let into = create_sized ~nodes:!live () in
  let map = match map with Some m -> m | None -> Array.make g.len false_ in
  copy_into mark ~map g ~into ~rule:append;
  into
