(* Classic ROBDD with a unique table and an ITE computed table.
   Terminals: node 0 = false, node 1 = true.  Internal node = (level, lo,
   hi) where [lo] is the cofactor for the decision variable = 0. *)

type t = int

type node = {
  level : int;   (* decision level; terminals use max_int *)
  lo : int;
  hi : int;
}

type man = {
  nvars : int;
  level_of_var : int array;
  var_of_level : int array;
  mutable nodes : node array;
  mutable len : int;
  unique : (int * int * int, int) Hashtbl.t;   (* (level, lo, hi) -> id *)
  ite_cache : (int * int * int, int) Hashtbl.t;
}

let terminal_level = max_int

let manager ?order ~num_vars () =
  if num_vars < 0 then invalid_arg "Bdd.manager: negative variable count";
  let level_of_var =
    match order with
    | None -> Array.init num_vars (fun v -> v)
    | Some order ->
      if Array.length order <> num_vars then
        invalid_arg "Bdd.manager: order length mismatch";
      let seen = Array.make num_vars false in
      Array.iter
        (fun l ->
          if l < 0 || l >= num_vars || seen.(l) then
            invalid_arg "Bdd.manager: order is not a permutation";
          seen.(l) <- true)
        order;
      Array.copy order
  in
  let var_of_level = Array.make (max num_vars 1) 0 in
  Array.iteri (fun v l -> var_of_level.(l) <- v) level_of_var;
  let nodes = Array.make 1024 { level = terminal_level; lo = 0; hi = 0 } in
  nodes.(0) <- { level = terminal_level; lo = 0; hi = 0 };
  nodes.(1) <- { level = terminal_level; lo = 1; hi = 1 };
  { nvars = num_vars;
    level_of_var;
    var_of_level;
    nodes;
    len = 2;
    unique = Hashtbl.create 4096;
    ite_cache = Hashtbl.create 4096 }

let num_vars m = m.nvars

let false_ _ = 0
let true_ _ = 1

let node m id = m.nodes.(id)

let mk m level lo hi =
  if lo = hi then lo
  else begin
    let key = (level, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some id -> id
    | None ->
      if m.len = Array.length m.nodes then begin
        let nodes = Array.make (2 * m.len) m.nodes.(0) in
        Array.blit m.nodes 0 nodes 0 m.len;
        m.nodes <- nodes
      end;
      let id = m.len in
      m.nodes.(id) <- { level; lo; hi };
      m.len <- m.len + 1;
      Hashtbl.add m.unique key id;
      id
  end

let var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Bdd.var: out of range";
  mk m m.level_of_var.(v) 0 1

(* the workhorse: if-then-else with memoisation *)
let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else begin
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
      let top =
        min (node m f).level (min (node m g).level (node m h).level)
      in
      let cofactor x branch =
        let n = node m x in
        if n.level = top then (if branch then n.hi else n.lo) else x
      in
      let hi = ite m (cofactor f true) (cofactor g true) (cofactor h true) in
      let lo = ite m (cofactor f false) (cofactor g false) (cofactor h false) in
      let r = mk m top lo hi in
      Hashtbl.replace m.ite_cache key r;
      r
  end

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor m f g = ite m f (not_ m g) g
let maj m f g h = ite m f (or_ m g h) (and_ m g h)

let equal (a : t) b = a = b

let is_const t = t < 2

let eval m t assignment =
  if Array.length assignment <> m.nvars then
    invalid_arg "Bdd.eval: assignment arity mismatch";
  let rec go id =
    if id < 2 then id = 1
    else begin
      let n = node m id in
      go (if assignment.(m.var_of_level.(n.level)) then n.hi else n.lo)
    end
  in
  go t

let size m t =
  let seen = Hashtbl.create 64 in
  let rec go id =
    if id >= 2 && not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      let n = node m id in
      go n.lo;
      go n.hi
    end
  in
  go t;
  Hashtbl.length seen

let interleave groups width =
  Array.init (groups * width) (fun v ->
      let g = v / width and i = v mod width in
      (i * groups) + g)
