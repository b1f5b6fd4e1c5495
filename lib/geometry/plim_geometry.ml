(* Crossbar geometry: bounded rows x cols grid, row-major placement and
   row-parallel instruction grouping.  See the .mli for the model and
   its invariants.

   The scheduler is a list scheduler over the hazard DAG of the flat
   instruction stream, kept in 32-bit words of unscanned byte tables: the
   DAG in CSR form, one precomputed home row per instruction, and the
   ready set as a min-heap plus one bucket per row.  Correctness leans on one
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

(* Per-instruction scheduler state is signed 32-bit words in unscanned
   [Bytes.t] tables (entry [i] at byte [4 * i]), half the words of an int
   array; [schedule]'s bound check keeps every index and offset in range. *)
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let[@inline] get t i = Int32.to_int (get32 t (4 * i))
let[@inline] set t i v = set32 t (4 * i) (Int32.of_int v)

(* Three RAW edges (destination, a, b) and two WAR edges (a, b) at most
   per instruction, so this many instructions keep the edge count, and
   with it every CSR offset, in a signed 32-bit word. *)
let max_instructions = Int32.(to_int max_int) / 5

(* The hazard DAG of the flat stream in CSR form: [u]'s successors are
   entries [start.(u) .. start.(u+1) - 1] of [succ], and [indeg] counts
   every edge into each instruction.  Each touched cell is read, the
   destination too, so RAW on it subsumes WAW.  RAW comes from a forward
   scan: the last writer of each cell read -> the reader, one edge per
   read occurrence.  WAR comes from a backward scan: each operand read of
   a cell the reader does not write -> the cell's next writer (a read of
   the reader's own destination is ordered by RAW and WAW already).
   Repeated edges are kept: each is counted and later decremented exactly
   once, and readiness depends only on the counts.  The two scans run
   twice, once to count out- and in-degrees and once to fill [succ]. *)
let hazard_dag (p : Program.t) =
  let code = p.Program.code in
  let n = Array.length code in
  let cells = Program.num_cells p in
  let writer = Array.make cells (-1) in
  let scan edge =
    Array.fill writer 0 cells (-1);
    for i = 0 to n - 1 do
      let w = code.(i) in
      let z = dest w and a = cell_a w and b = cell_b w in
      if writer.(z) >= 0 then edge writer.(z) i;
      if a >= 0 && writer.(a) >= 0 then edge writer.(a) i;
      if b >= 0 && writer.(b) >= 0 then edge writer.(b) i;
      writer.(z) <- i
    done;
    Array.fill writer 0 cells (-1);
    for i = n - 1 downto 0 do
      let w = code.(i) in
      let z = dest w and a = cell_a w and b = cell_b w in
      if a >= 0 && a <> z && writer.(a) >= 0 then edge i writer.(a);
      if b >= 0 && b <> z && writer.(b) >= 0 then edge i writer.(b);
      writer.(z) <- i
    done
  in
  let start = Bytes.make (4 * (n + 1)) '\000' and indeg = Bytes.make (4 * n) '\000' in
  scan (fun u v ->
      set start (u + 1) (get start (u + 1) + 1);
      set indeg v (get indeg v + 1));
  Csr.prefix_sums32 start;
  (start, Csr.scatter32 start scan, indeg)

(* Binary min-heap over the first [!len] entries of [heap]. *)
let heap_push heap len x =
  let i = ref !len in
  incr len;
  while !i > 0 && get heap ((!i - 1) / 2) > x do
    set heap !i (get heap ((!i - 1) / 2));
    i := (!i - 1) / 2
  done;
  set heap !i x

let heap_pop heap len =
  let top = get heap 0 in
  decr len;
  let x = get heap !len in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < !len && get heap (l + 1) < get heap l then l + 1 else l in
    if c < !len && get heap c < x then begin
      set heap !i (get heap c);
      i := c
    end
    else continue := false
  done;
  set heap !i x;
  top

(* Ascending order.  A row's ready instructions write distinct cells of
   the row, so a group holds at most [cols] members and insertion sort
   costs at most [cols] steps per instruction over a whole schedule; it
   allocates nothing, where [Array.sort] makes its closures on every
   call. *)
let sort_members a =
  for i = 1 to Array.length a - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

let schedule g (p : Program.t) =
  let n = Program.length p in
  if not (fits g ~num_cells:(Program.num_cells p)) then
    Error
      (Printf.sprintf "geometry: program needs %d cells but grid %s has area %d"
         (Program.num_cells p) (to_string g) (area g))
  else if n > max_instructions then
    Error
      (Printf.sprintf
         "geometry: %d instructions exceed the scheduler's 32-bit bound of %d \
          (5 hazard edges per instruction)"
         n max_instructions)
  else begin
    let start, succ, indeg = hazard_dag p in
    let home = Bytes.create (4 * n) in
    for i = 0 to n - 1 do
      set home i (home_row g p.Program.code.(i))
    done;
    (* The ready set, held twice: a min-heap of every ready instruction
       (scheduled ones are dropped lazily when they surface, marked by
       [indeg = -1]) and a bucket per row of the ready instructions
       confined to it, linked through [bucket_next]. *)
    let heap = Bytes.create (4 * n) and heap_len = ref 0 in
    let bucket = Array.make g.rows (-1) and bucket_next = Bytes.create (4 * n) in
    let bucket_len = Array.make g.rows 0 in
    let make_ready i =
      heap_push heap heap_len i;
      let r = get home i in
      if r >= 0 then begin
        set bucket_next i bucket.(r);
        bucket.(r) <- i;
        bucket_len.(r) <- bucket_len.(r) + 1
      end
    in
    for i = 0 to n - 1 do
      if get indeg i = 0 then make_ready i
    done;
    let groups = Array.make n [||] and num_groups = ref 0 in
    let cross_row = ref 0 in
    (* each group: the smallest ready index, then every ready instruction
       of its row in ascending order — or it alone if it is cross-row *)
    while !heap_len > 0 do
      let first = heap_pop heap heap_len in
      if get indeg first = 0 then begin
        let r = get home first in
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
              k := get bucket_next !k
            done;
            sort_members members;
            bucket.(r) <- -1;
            bucket_len.(r) <- 0;
            members
          end
        in
        for j = 0 to Array.length group - 1 do
          set indeg group.(j) (-1)
        done;
        for j = 0 to Array.length group - 1 do
          let u = group.(j) in
          for e = get start u to get start (u + 1) - 1 do
            let v = get succ e in
            let d = get indeg v - 1 in
            set indeg v d;
            if d = 0 then make_ready v
          done
        done;
        groups.(!num_groups) <- group;
        incr num_groups
      end
    done;
    (* all hazard edges point forward in the flat stream, so the DAG is
       acyclic and list scheduling always drains it *)
    for i = 0 to n - 1 do
      assert (get indeg i = -1)
    done;
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
