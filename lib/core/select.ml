module Mig = Plim_mig.Mig
module Lazy_heap = Plim_util.Lazy_heap
module Csr = Plim_util.Csr
module Metrics = Plim_obs.Metrics

type policy = In_order | Release_first | Level_first

let m_pops = Metrics.counter "select.pops"
let m_candidates = Metrics.counter "select.candidates"
let m_requeued = Metrics.counter "select.requeued"

let policy_name = function
  | In_order -> "in-order"
  | Release_first -> "release-first"
  | Level_first -> "level-first"

type t = {
  policy : policy;
  g : Mig.t;
  pending : int array;
  fanout_level : int array;
  children_left : int array;   (* uncomputed non-trivial children *)
  computed_mark : bool array;
  is_candidate : bool array;
  parent_start : int array;    (* node id -> its span of [parents] *)
  parents : int array;         (* reachable majority parents, ascending *)
  heap : Lazy_heap.t;
}

(* Number of children whose device is freed (or consumed in place) when
   [id] is computed. *)
let releases t id i =
  let n = Mig.node_of (Mig.child t.g id i) in
  if n <> 0 && t.pending.(n) = 1 then 1 else 0

let releasing t id =
  if Mig.is_maj t.g id then releases t id 0 + releases t id 1 + releases t id 2 else 0

let insert t id =
  match t.policy with
  | In_order -> Lazy_heap.insert t.heap id 0 0 id
  | Release_first -> Lazy_heap.insert t.heap (- releasing t id) t.fanout_level.(id) id id
  | Level_first -> Lazy_heap.insert t.heap t.fanout_level.(id) (- releasing t id) id id

let add_candidate t id =
  t.is_candidate.(id) <- true;
  Metrics.incr m_candidates;
  insert t id

(* A majority node is reachable exactly when some reachable parent or an
   output still uses it: [pending] starts as fanout count + output refs. *)
let is_reachable_maj g ~pending id = Mig.is_maj g id && pending.(id) > 0

(* Calls [f child id] once per distinct child node of every reachable
   majority node [id], in ascending [id] order: the parent lists of
   {!Mig.fanouts}, as CSR buckets. *)
let iter_child_edges g ~pending f =
  for id = 0 to Mig.num_nodes g - 1 do
    if is_reachable_maj g ~pending id then begin
      let n0 = Mig.node_of (Mig.child g id 0)
      and n1 = Mig.node_of (Mig.child g id 1)
      and n2 = Mig.node_of (Mig.child g id 2) in
      f n0 id;
      if n1 <> n0 then f n1 id;
      if n2 <> n0 && n2 <> n1 then f n2 id
    end
  done

(* 1 when child [i] of [id] is a majority node, to be computed first *)
let needs g id i = if Mig.is_maj g (Mig.node_of (Mig.child g id i)) then 1 else 0

let create ~policy g ~pending =
  let n = Mig.num_nodes g in
  let levels = Mig.levels g in
  let parent_start = Array.make (n + 1) 0 in
  iter_child_edges g ~pending (fun c _ -> parent_start.(c + 1) <- parent_start.(c + 1) + 1);
  Csr.prefix_sums parent_start;
  let parents = Csr.scatter parent_start (fun add -> iter_child_edges g ~pending add) in
  let fanout_level = Array.make n 0 in
  for id = 0 to n - 1 do
    (* level of the nearest consumer: the earliest moment the value can be
       used (and its device possibly recycled) *)
    let from_parents = ref max_int in
    for k = parent_start.(id) to parent_start.(id + 1) - 1 do
      from_parents := min !from_parents levels.(parents.(k))
    done;
    fanout_level.(id) <-
      (if !from_parents = max_int then levels.(id) + 1 else !from_parents)
  done;
  (* a primary output consumes the value as soon as it is produced *)
  for i = 0 to Mig.num_outputs g - 1 do
    let id = Mig.node_of (snd (Mig.output g i)) in
    fanout_level.(id) <- min fanout_level.(id) (levels.(id) + 1)
  done;
  let children_left = Array.make n 0 in
  let t =
    { policy;
      g;
      pending;
      fanout_level;
      children_left;
      computed_mark = Array.make n false;
      is_candidate = Array.make n false;
      parent_start;
      parents;
      heap = Lazy_heap.create ~capacity:n }
  in
  (* constants and inputs are available from the start *)
  for id = 0 to n - 1 do
    if is_reachable_maj g ~pending id then begin
      let left = needs g id 0 + needs g id 1 + needs g id 2 in
      children_left.(id) <- left;
      if left = 0 then add_candidate t id
    end
  done;
  t

let pop t =
  match Lazy_heap.pop_min t.heap with
  | None -> None
  | Some id as popped ->
    t.is_candidate.(id) <- false;
    Metrics.incr m_pops;
    popped

let computed t id =
  t.computed_mark.(id) <- true;
  for k = t.parent_start.(id) to t.parent_start.(id + 1) - 1 do
    let parent = t.parents.(k) in
    if not t.computed_mark.(parent) then begin
      t.children_left.(parent) <- t.children_left.(parent) - 1;
      if t.children_left.(parent) = 0 then add_candidate t parent
    end
  done

let child_pending_dropped_to_one t id =
  (* the single remaining consumer gains a releasing device *)
  for k = t.parent_start.(id) to t.parent_start.(id + 1) - 1 do
    let parent = t.parents.(k) in
    if (not t.computed_mark.(parent)) && t.is_candidate.(parent) then begin
      Metrics.incr m_requeued;
      insert t parent
    end
  done
