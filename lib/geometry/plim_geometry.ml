(* Crossbar geometry: bounded rows x cols grid, row-major placement and
   row-parallel instruction grouping.  See the .mli for the model and
   its invariants.

   The scheduler is a list scheduler over the hazard DAG of the flat
   instruction stream, kept in flat int arrays: the DAG in CSR form, one
   precomputed home row per instruction, and the ready set as an int
   min-heap plus one bucket per row.  Correctness leans on one
   structural fact: every hazard (RAW, WAW, WAR) between two
   instructions becomes an edge, so any two instructions that are
   simultaneously ready are hazard-free and may execute in the same
   group in either order.  Grouping therefore only ever reorders
   independent instructions and the functional results stay
   byte-identical to the flat backend. *)

module Program = Plim_isa.Program
module Csr = Plim_util.Csr

type grid = { rows : int; cols : int }

let make ~rows ~cols =
  if rows < 1 || cols < 1 then
    Error (Printf.sprintf "geometry: bad grid %dx%d (both sides must be >= 1)" rows cols)
  else Ok { rows; cols }

let make_exn ~rows ~cols =
  match make ~rows ~cols with Ok g -> g | Error msg -> invalid_arg msg

let of_string s =
  match String.index_opt s 'x' with
  | None -> Error (Printf.sprintf "geometry: %S is not of the form ROWSxCOLS" s)
  | Some i -> (
    let rows = String.sub s 0 i in
    let cols = String.sub s (i + 1) (String.length s - i - 1) in
    match (int_of_string_opt rows, int_of_string_opt cols) with
    | Some r, Some c -> make ~rows:r ~cols:c
    | _ -> Error (Printf.sprintf "geometry: %S is not of the form ROWSxCOLS" s))

let to_string g = Printf.sprintf "%dx%d" g.rows g.cols

let pp ppf g = Format.pp_print_string ppf (to_string g)

let area g = g.rows * g.cols

let grid_for ~cols ~num_cells =
  if cols < 1 then invalid_arg "Plim_geometry.grid_for: cols must be >= 1";
  if num_cells < 0 then invalid_arg "Plim_geometry.grid_for: negative num_cells";
  { rows = max 1 ((num_cells + cols - 1) / cols); cols }

let fits g ~num_cells = num_cells <= area g

let row_of g cell = cell / g.cols

let col_of g cell = cell mod g.cols

type schedule = {
  s_grid : grid;
  s_groups : int array array;
  s_cross_row : int;
}

(* The fields of packed word [w] (Program's layout), operands as cells:
   a constant's code is 0 or 1, so its cell is negative.  The destination
   is always a touched cell (RM3 reads and writes it), so an instruction
   touches its destination plus every cell operand. *)
let dest w = w land Program.field_mask
let cell_a w = ((w lsr Program.field_bits) land Program.field_mask) - 2
let cell_b w = (w lsr (2 * Program.field_bits)) - 2

(* The single row all touched cells of word [w] lie in, or [-1] if they
   span rows (a cross-row instruction). *)
let home_row g w =
  let r = row_of g (dest w) in
  let a = cell_a w and b = cell_b w in
  if (a < 0 || row_of g a = r) && (b < 0 || row_of g b = r) then r else -1

(* The hazard DAG of the flat stream in CSR form: [u]'s successors are
   [succ.(start.(u)) .. succ.(start.(u+1) - 1)], and [indeg] counts
   every edge into each instruction.  Each touched cell is read — the
   destination too, so RAW on it subsumes WAW — and a write orders after
   every read of the cell since its previous write (WAR).  "Readers since
   the last write" is an int-linked list per cell over a node pool (one
   node per read; a write drops the cell's list).  The stream is scanned
   twice, once to count out-degrees and once to fill [succ].  Repeated
   edges are kept: each is counted and later decremented exactly once. *)
let hazard_dag (p : Program.t) =
  let code = p.Program.code in
  let n = Array.length code in
  let cells = Program.num_cells p in
  let last_write = Array.make cells (-1) and head = Array.make cells (-1) in
  let node_instr = Array.make (3 * n) 0 and node_next = Array.make (3 * n) 0 in
  let nodes = ref 0 in
  let scan edge =
    Array.fill last_write 0 cells (-1);
    Array.fill head 0 cells (-1);
    nodes := 0;
    let read i c =
      if c >= 0 then begin
        if last_write.(c) >= 0 then edge last_write.(c) i;
        node_instr.(!nodes) <- i;
        node_next.(!nodes) <- head.(c);
        head.(c) <- !nodes;
        incr nodes
      end
    in
    for i = 0 to n - 1 do
      let w = code.(i) in
      let z = dest w in
      read i z;
      read i (cell_a w);
      read i (cell_b w);
      let k = ref head.(z) in
      while !k >= 0 do
        if node_instr.(!k) <> i then edge node_instr.(!k) i;
        k := node_next.(!k)
      done;
      last_write.(z) <- i;
      head.(z) <- -1
    done
  in
  let start = Array.make (n + 1) 0 and indeg = Array.make n 0 in
  scan (fun u v ->
      start.(u + 1) <- start.(u + 1) + 1;
      indeg.(v) <- indeg.(v) + 1);
  Csr.prefix_sums start;
  (start, Csr.scatter start scan, indeg)

(* Binary min-heap of ints with a fixed capacity. *)
let heap_push heap len x =
  let i = ref !len in
  incr len;
  while !i > 0 && heap.((!i - 1) / 2) > x do
    heap.(!i) <- heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  heap.(!i) <- x

let heap_pop heap len =
  let top = heap.(0) in
  decr len;
  let x = heap.(!len) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < !len && heap.(l + 1) < heap.(l) then l + 1 else l in
    if c < !len && heap.(c) < x then begin
      heap.(!i) <- heap.(c);
      i := c
    end
    else continue := false
  done;
  heap.(!i) <- x;
  top

let schedule g (p : Program.t) =
  if not (fits g ~num_cells:(Program.num_cells p)) then
    Error
      (Printf.sprintf "geometry: program needs %d cells but grid %s has area %d"
         (Program.num_cells p) (to_string g) (area g))
  else begin
    let n = Program.length p in
    let start, succ, indeg = hazard_dag p in
    let home = Array.map (home_row g) p.Program.code in
    (* The ready set, held twice: a min-heap of every ready instruction
       (scheduled ones are dropped lazily when they surface, marked by
       [indeg = -1]) and an int-linked bucket per row of the ready
       instructions confined to it. *)
    let heap = Array.make n 0 and heap_len = ref 0 in
    let bucket = Array.make g.rows (-1) and bucket_next = Array.make n (-1) in
    let bucket_len = Array.make g.rows 0 in
    let make_ready i =
      heap_push heap heap_len i;
      let r = home.(i) in
      if r >= 0 then begin
        bucket_next.(i) <- bucket.(r);
        bucket.(r) <- i;
        bucket_len.(r) <- bucket_len.(r) + 1
      end
    in
    for i = 0 to n - 1 do
      if indeg.(i) = 0 then make_ready i
    done;
    let groups = Array.make n [||] and num_groups = ref 0 in
    let cross_row = ref 0 in
    (* each group: the smallest ready index, then every ready instruction
       of its row in ascending order — or it alone if it is cross-row *)
    while !heap_len > 0 do
      let first = heap_pop heap heap_len in
      if indeg.(first) = 0 then begin
        let r = home.(first) in
        let group =
          if r < 0 then begin
            incr cross_row;
            [| first |]
          end
          else begin
            let members = Array.make bucket_len.(r) 0 in
            let k = ref bucket.(r) in
            for j = 0 to bucket_len.(r) - 1 do
              members.(j) <- !k;
              k := bucket_next.(!k)
            done;
            Array.sort Int.compare members;
            bucket.(r) <- -1;
            bucket_len.(r) <- 0;
            members
          end
        in
        Array.iter (fun u -> indeg.(u) <- -1) group;
        Array.iter
          (fun u ->
            for e = start.(u) to start.(u + 1) - 1 do
              let v = succ.(e) in
              indeg.(v) <- indeg.(v) - 1;
              if indeg.(v) = 0 then make_ready v
            done)
          group;
        groups.(!num_groups) <- group;
        incr num_groups
      end
    done;
    (* all hazard edges point forward in the flat stream, so the DAG is
       acyclic and list scheduling always drains it *)
    assert (Array.for_all (fun d -> d = -1) indeg);
    Ok { s_grid = g; s_groups = Array.sub groups 0 !num_groups; s_cross_row = !cross_row }
  end

let of_groups g (p : Program.t) groups =
  let n = Program.length p in
  let cross_row = ref 0 in
  Array.iter
    (Array.iter (fun i ->
         if i >= 0 && i < n && home_row g p.Program.code.(i) < 0 then
           incr cross_row))
    groups;
  { s_grid = g;
    s_groups = Array.map Array.copy groups;
    s_cross_row = !cross_row }

let num_groups s = Array.length s.s_groups

let max_group_size s =
  Array.fold_left (fun acc g -> max acc (Array.length g)) 1 s.s_groups

let validate (p : Program.t) s =
  let ( let* ) = Result.bind in
  let g = s.s_grid in
  let code = p.Program.code in
  let n = Array.length code in
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  let* () =
    if fits g ~num_cells:(Program.num_cells p) then Ok ()
    else
      fail "area: %d cells exceed grid %s (area %d)" (Program.num_cells p)
        (to_string g) (area g)
  in
  (* permutation: every instruction index scheduled exactly once *)
  let group_of = Array.make n (-1) in
  let* () =
    try
      Array.iteri
        (fun gi members ->
          if Array.length members = 0 then failwith "empty group";
          Array.iter
            (fun i ->
              if i < 0 || i >= n then failwith (Printf.sprintf "index %d out of range" i);
              if group_of.(i) >= 0 then
                failwith (Printf.sprintf "instruction %d scheduled twice" i);
              group_of.(i) <- gi)
            members)
        s.s_groups;
      Array.iteri
        (fun i gi ->
          if gi < 0 then failwith (Printf.sprintf "instruction %d never scheduled" i))
        group_of;
      Ok ()
    with Failure m -> fail "coverage: %s" m
  in
  (* groups of two or more must be confined to one row *)
  let* () =
    let bad = ref None in
    Array.iteri
      (fun gi members ->
        if Array.length members > 1 && !bad = None then begin
          let r = home_row g code.(members.(0)) in
          if r < 0 || not (Array.for_all (fun i -> home_row g code.(i) = r) members)
          then bad := Some gi
        end)
      s.s_groups;
    match !bad with
    | Some gi -> fail "row: group %d mixes rows (or contains a cross-row op)" gi
    | None -> Ok ()
  in
  (* hazard order: scanning the flat stream, every RAW/WAW/WAR pair must
     land in strictly increasing groups *)
  let* () =
    let last_write_group = Array.make (Program.num_cells p) (-1) in
    let max_reader_group = Array.make (Program.num_cells p) (-1) in
    let bad = ref None in
    (* every touched cell is read; within one instruction the last
       violation found wins *)
    let raw i gi c = if c >= 0 && gi <= last_write_group.(c) then bad := Some (i, c, "RAW") in
    let read gi c = if c >= 0 then max_reader_group.(c) <- max max_reader_group.(c) gi in
    for i = 0 to n - 1 do
      if !bad = None then begin
        let gi = group_of.(i) in
        let w = code.(i) in
        let z = dest w and a = cell_a w and b = cell_b w in
        raw i gi z;
        raw i gi a;
        raw i gi b;
        if gi <= max_reader_group.(z) then bad := Some (i, z, "WAR");
        read gi z;
        read gi a;
        read gi b;
        last_write_group.(z) <- gi;
        max_reader_group.(z) <- gi
      end
    done;
    match !bad with
    | Some (i, c, kind) ->
      fail "hazard: instruction %d violates %s ordering on cell %d" i kind c
    | None -> Ok ()
  in
  let* () =
    if num_groups s <= n || n = 0 then Ok ()
    else fail "latency: %d groups exceed %d instructions" (num_groups s) n
  in
  Ok ()
