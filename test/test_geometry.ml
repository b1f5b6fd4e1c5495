(* The crossbar-geometry backend: grid arithmetic, the row-parallel
   scheduler's invariants, and functional byte-identity between grouped
   execution and the flat controller. *)

module G = Plim_geometry
module I = Plim_isa.Instruction
module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Controller = Plim_machine.Plim_controller
module Suite = Plim_benchgen.Suite
module Splitmix = Plim_util.Splitmix
module Race = Plim_certify.Race

let ok_exn = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected Error: %s" e

(* --- grid arithmetic ---------------------------------------------------- *)

let test_make () =
  let g = G.make_exn ~rows:3 ~cols:4 in
  Alcotest.(check int) "rows" 3 g.G.rows;
  Alcotest.(check int) "cols" 4 g.G.cols;
  Alcotest.(check int) "area" 12 (G.area g);
  Alcotest.(check bool) "zero rows rejected" true (Result.is_error (G.of_string "0x4"));
  Alcotest.(check bool) "negative cols rejected" true (Result.is_error (G.of_string "4x-1"));
  Alcotest.check_raises "make_exn raises"
    (Invalid_argument "geometry: bad grid 0x4 (both sides must be >= 1)")
    (fun () -> ignore (G.make_exn ~rows:0 ~cols:4))

let test_of_string () =
  let roundtrip s =
    Alcotest.(check string) s s (G.to_string (ok_exn (G.of_string s)))
  in
  roundtrip "8x64";
  roundtrip "1x1";
  roundtrip "128x2";
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Printf.sprintf "%S rejected" s)
        true
        (Result.is_error (G.of_string s)))
    [ ""; "8"; "x"; "8x"; "x8"; "8x0"; "0x8"; "-1x4"; "8x64x2"; "8 x 64"; "ax b" ]

let test_placement () =
  let g = G.make_exn ~rows:3 ~cols:4 in
  Alcotest.(check int) "row of 0" 0 (G.row_of g 0);
  Alcotest.(check int) "row of 5" 1 (G.row_of g 5);
  Alcotest.(check int) "col of 5" 1 (G.col_of g 5);
  Alcotest.(check int) "row of 11" 2 (G.row_of g 11);
  Alcotest.(check bool) "12 cells fit 3x4" true (G.fits g ~num_cells:12);
  Alcotest.(check bool) "13 cells do not fit" false (G.fits g ~num_cells:13)

let test_grid_for () =
  let g = G.grid_for ~cols:4 ~num_cells:10 in
  Alcotest.(check string) "ceil(10/4)=3 rows" "3x4" (G.to_string g);
  Alcotest.(check string) "exact fit" "2x4"
    (G.to_string (G.grid_for ~cols:4 ~num_cells:8));
  Alcotest.(check string) "empty program still gets one row" "1x4"
    (G.to_string (G.grid_for ~cols:4 ~num_cells:0))

(* --- scheduling --------------------------------------------------------- *)

(* two independent NOT gates: cells 0,1 inputs; 2,3 outputs *)
let two_nots () =
  Program.make
    ~instrs:
      [| I.set_const true 2;
         I.set_const true 3;
         I.rm3 ~a:(I.Const false) ~b:(I.Cell 0) ~z:2;
         I.rm3 ~a:(I.Const false) ~b:(I.Cell 1) ~z:3 |]
    ~num_cells:4
    ~pi_cells:[| ("a", 0); ("b", 1) |]
    ~po_cells:[| ("x", 2); ("y", 3) |]

let test_schedule_rejects_overflow () =
  let p = two_nots () in
  let g = G.make_exn ~rows:1 ~cols:3 in
  match G.schedule g p with
  | Ok _ -> Alcotest.fail "4-cell program scheduled on a 3-cell grid"
  | Error e ->
    Alcotest.(check bool) "error mentions the bound" true
      (Helpers.contains ~needle:"4" e)

let test_parallel_row () =
  (* on one wide row, the two independent NOTs (and their two priming
     writes) pair up: 2 groups instead of 4 *)
  let p = two_nots () in
  let s = ok_exn (G.schedule (G.make_exn ~rows:1 ~cols:4) p) in
  ok_exn (G.validate p s);
  Alcotest.(check int) "two groups" 2 (G.num_groups s);
  Alcotest.(check int) "width two" 2 (G.max_group_size s);
  Alcotest.(check int) "no cross-row singletons" 0 s.G.s_cross_row

let test_serial_column () =
  (* cols = 1: every row holds one cell, so every RM3 touching two cells
     is cross-row and the schedule degenerates to the instruction stream *)
  let p = two_nots () in
  let s = ok_exn (G.schedule (G.make_exn ~rows:4 ~cols:1) p) in
  ok_exn (G.validate p s);
  Alcotest.(check int) "one group per instruction" (Program.length p)
    (G.num_groups s);
  Alcotest.(check int) "all singletons" 1 (G.max_group_size s)

let test_hazard_serializes () =
  (* z depends on both priming writes through cell 2: RAW forces the
     chain to serialize even though everything is in one row *)
  let p =
    Program.make
      ~instrs:
        [| I.set_const true 1;
           I.rm3 ~a:(I.Const false) ~b:(I.Cell 0) ~z:1;
           I.rm3 ~a:(I.Cell 1) ~b:(I.Const false) ~z:2 |]
      ~num_cells:3
      ~pi_cells:[| ("a", 0) |]
      ~po_cells:[| ("y", 2) |]
  in
  let s = ok_exn (G.schedule (G.make_exn ~rows:1 ~cols:3) p) in
  ok_exn (G.validate p s);
  Alcotest.(check int) "fully serial" 3 (G.num_groups s)

let suite_programs =
  lazy
    (List.filteri (fun i _ -> i < 6) Suite.small_suite
    |> List.map (fun spec ->
           let g = Suite.build_cached spec in
           ( spec.Suite.name,
             (Pipeline.compile Pipeline.endurance_full g).Pipeline.program )))

let grids_for p =
  let n = Program.num_cells p in
  List.map (fun cols -> G.grid_for ~cols ~num_cells:n) [ 1; 3; 8; 32 ]

let test_suite_invariants () =
  List.iter
    (fun (name, p) ->
      let n_instr = Program.length p in
      List.iter
        (fun grid ->
          let ctx = Printf.sprintf "%s@%s" name (G.to_string grid) in
          let s = ok_exn (G.schedule grid p) in
          (match G.validate p s with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: validate: %s" ctx e);
          if G.num_groups s > n_instr then
            Alcotest.failf "%s: %d groups > %d instructions" ctx
              (G.num_groups s) n_instr;
          if grid.G.cols = 1 && G.num_groups s <> n_instr then
            Alcotest.failf "%s: serial grid gave %d groups for %d instrs" ctx
              (G.num_groups s) n_instr)
        (grids_for p))
    (Lazy.force suite_programs)

let test_schedule_deterministic () =
  let name, p = List.hd (Lazy.force suite_programs) in
  ignore name;
  let grid = G.grid_for ~cols:8 ~num_cells:(Program.num_cells p) in
  let s1 = ok_exn (G.schedule grid p) and s2 = ok_exn (G.schedule grid p) in
  Alcotest.(check bool) "same groups" true (s1.G.s_groups = s2.G.s_groups)

(* --- grouped execution vs the flat controller --------------------------- *)

let random_inputs rng p = Splitmix.bits rng ~width:(Array.length p.Program.pi_cells)

let test_run_grouped_identity () =
  let rng = Splitmix.create 0xC0DE in
  List.iter
    (fun (name, p) ->
      List.iter
        (fun grid ->
          for _ = 1 to 3 do
            let inputs = random_inputs rng p in
            let flat, _, fstats = Controller.run p ~inputs in
            let grouped, _, gstats =
              ok_exn (Controller.run_grouped ~geometry:grid p ~inputs)
            in
            let ctx = Printf.sprintf "%s@%s" name (G.to_string grid) in
            Alcotest.(check (list (pair string bool)))
              (ctx ^ " outputs") flat grouped;
            Alcotest.(check int)
              (ctx ^ " cycles")
              fstats.Controller.cycles gstats.Controller.cycles;
            Alcotest.(check int)
              (ctx ^ " instructions")
              fstats.Controller.instructions gstats.Controller.instructions
          done)
        (grids_for p))
    (Lazy.force suite_programs)

let test_run_grouped_wear_identity () =
  (* grouping must not change which cells get written how often *)
  let _, p = List.hd (Lazy.force suite_programs) in
  let inputs =
    Array.make (Array.length p.Program.pi_cells) true
  in
  let _, xb_flat, _ = Controller.run p ~inputs in
  let grid = G.grid_for ~cols:8 ~num_cells:(Program.num_cells p) in
  let _, xb_grp, _ = ok_exn (Controller.run_grouped ~geometry:grid p ~inputs) in
  Alcotest.(check bool) "per-cell write counts equal" true
    (Plim_rram.Crossbar.write_counts xb_flat
    = Plim_rram.Crossbar.write_counts xb_grp)

let test_static_groups () =
  let _, p = List.hd (Lazy.force suite_programs) in
  let grid = G.grid_for ~cols:8 ~num_cells:(Program.num_cells p) in
  let n = ok_exn (Controller.static_groups ~geometry:grid p) in
  let s = ok_exn (G.schedule grid p) in
  Alcotest.(check int) "static_groups = schedule groups" (G.num_groups s) n

(* --- property tests ----------------------------------------------------- *)

(* random straight-line programs over a small cell pool: every operand
   combination, including aliasing (a = z, b = z) and repeated writes *)
let program_gen =
  QCheck.Gen.(
    let operand =
      oneof [ map (fun b -> I.Const b) bool; map (fun c -> I.Cell c) (int_bound 7) ]
    in
    let instr =
      map3 (fun a b z -> I.rm3 ~a ~b ~z) operand operand (int_bound 7)
    in
    map
      (fun instrs ->
        Program.make
          ~instrs:(Array.of_list instrs)
          ~num_cells:8
          ~pi_cells:[| ("a", 0); ("b", 1) |]
          ~po_cells:[| ("x", 6); ("y", 7) |])
      (list_size (int_range 1 24) instr))

let program_arb = QCheck.make ~print:Plim_isa.Asm.to_string program_gen

let prop_schedule_valid =
  QCheck.Test.make ~count:300 ~name:"random programs schedule validly on random grids"
    QCheck.(pair program_arb (int_range 1 10))
    (fun (p, cols) ->
      let grid = G.grid_for ~cols ~num_cells:(Program.num_cells p) in
      let s =
        match G.schedule grid p with
        | Ok s -> s
        | Error e -> QCheck.Test.fail_reportf "schedule: %s" e
      in
      (match G.validate p s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "validate: %s" e);
      G.num_groups s <= Program.length p
      && (grid.G.cols > 1 || G.num_groups s = Program.length p))

let prop_grouped_matches_flat =
  QCheck.Test.make ~count:300
    ~name:"grouped execution = flat execution on random programs"
    QCheck.(triple program_arb (int_range 1 10) (pair bool bool))
    (fun (p, cols, (va, vb)) ->
      let grid = G.grid_for ~cols ~num_cells:(Program.num_cells p) in
      let inputs = [| va; vb |] in
      let flat, _, fstats = Controller.run p ~inputs in
      match Controller.run_grouped ~geometry:grid p ~inputs with
      | Error e -> QCheck.Test.fail_reportf "run_grouped: %s" e
      | Ok (grouped, _, gstats) ->
        flat = grouped && fstats.Controller.cycles = gstats.Controller.cycles)

(* --- the scheduler against a reference list scheduler -------------------- *)

(* The list-based scheduler the flat-array one replaced, kept as the
   reference: a sorted ready list, one [List.partition] per group, and
   per-instruction lists of touched cells.  Returns (groups, cross_row). *)
let reference_schedule g (p : Program.t) =
  let touched (i : I.t) =
    i.I.z
    :: List.filter_map
         (function I.Const _ -> None | I.Cell c -> Some c)
         [ i.I.a; i.I.b ]
  in
  let in_row r i = List.for_all (fun c -> G.row_of g c = r) (touched i) in
  let home_row i =
    let r = G.row_of g i.I.z in
    if in_row r i then Some r else None
  in
  let n = Program.length p in
  let instr i = Program.instr p i in
  let succs = Array.make n [] and indeg = Array.make n 0 in
  let add_edge u v =
    if u <> v then begin
      succs.(u) <- v :: succs.(u);
      indeg.(v) <- indeg.(v) + 1
    end
  in
  let last_write = Array.make (Program.num_cells p) (-1) in
  let readers_since = Array.make (Program.num_cells p) [] in
  for i = 0 to n - 1 do
    List.iter
      (fun c ->
        if last_write.(c) >= 0 then add_edge last_write.(c) i;
        readers_since.(c) <- i :: readers_since.(c))
      (touched (instr i));
    let z = (instr i).I.z in
    List.iter (fun r -> add_edge r i) readers_since.(z);
    last_write.(z) <- i;
    readers_since.(z) <- []
  done;
  let rec insert x = function
    | [] -> [ x ]
    | y :: tl when y < x -> y :: insert x tl
    | l -> x :: l
  in
  let ready = ref (List.filter (fun i -> indeg.(i) = 0) (List.init n Fun.id)) in
  let groups = ref [] and cross_row = ref 0 in
  while !ready <> [] do
    let first = List.hd !ready in
    let group, rest =
      match home_row (instr first) with
      | None ->
        incr cross_row;
        ([ first ], List.tl !ready)
      | Some r -> List.partition (fun i -> in_row r (instr i)) !ready
    in
    ready := rest;
    List.iter
      (fun u ->
        List.iter
          (fun v ->
            indeg.(v) <- indeg.(v) - 1;
            if indeg.(v) = 0 then ready := insert v !ready)
          succs.(u))
      group;
    groups := Array.of_list group :: !groups
  done;
  (Array.of_list (List.rev !groups), !cross_row)

let same_as_reference g p =
  let s = ok_exn (G.schedule g p) in
  let groups, cross_row = reference_schedule g p in
  s.G.s_groups = groups && s.G.s_cross_row = cross_row

let prop_schedule_reference =
  QCheck.Test.make ~count:300
    ~name:"schedule = reference list scheduler on random programs"
    QCheck.(pair program_arb (int_range 1 10))
    (fun (p, cols) -> same_as_reference (G.grid_for ~cols ~num_cells:(Program.num_cells p)) p)

(* [f name p cols] on every small-suite circuit, compiled endurance-full,
   at 1, 4, 16 and 64 columns *)
let iter_suite_widths f =
  List.iter
    (fun spec ->
      let p =
        (Pipeline.compile Pipeline.endurance_full (Suite.build_cached spec)).Pipeline.program
      in
      List.iter (f spec.Suite.name p) [ 1; 4; 16; 64 ])
    Suite.small_suite

let test_suite_reference () =
  iter_suite_widths (fun name p cols ->
      let g = G.grid_for ~cols ~num_cells:(Program.num_cells p) in
      if not (same_as_reference g p) then
        Alcotest.failf "%s@%s: schedule differs from the reference" name (G.to_string g))

(* --- allocation ----------------------------------------------------------- *)

(* The scheduler's per-instruction tables are 32-bit words in byte
   tables, and the reader pool is gone: 4.7-5.8 direct-major words per
   instruction on these programs (14.3-15.6 with word arrays and the
   pool).  Much below ~1 k instructions the tables are small enough for
   the minor heap. *)
let test_schedule_words () =
  List.iter
    (fun name ->
      let p =
        (Pipeline.compile Pipeline.endurance_full
           (Suite.build_cached (Suite.find name))).Pipeline.program
      in
      List.iter
        (fun cols ->
          let g = G.grid_for ~cols ~num_cells:(Program.num_cells p) in
          let _, words = Helpers.direct_major_words_of (fun () -> ok_exn (G.schedule g p)) in
          let per = words /. float (Program.length p) in
          if per >= 7.0 then
            Alcotest.failf
              "%s@%s: schedule allocates %.2f direct-major words per instruction \
               (bound 7.0)"
              name (G.to_string g) per)
        [ 1; 16; 64 ])
    [ "div8"; "multiplier8" ]

(* --- consumers leave the stream as it was --------------------------------- *)

(* A program is shared across domains on the promise that nothing that
   reads it writes its [code] (program.mli).  The scheduler scans the
   words in place, and so do both hazard checkers and grouped
   execution: each must leave every word unchanged. *)
let code_untouched p cols =
  let before = Array.copy p.Program.code in
  let grid = G.grid_for ~cols ~num_cells:(Program.num_cells p) in
  (match G.schedule grid p with
  | Ok s ->
    ignore (G.validate p s);
    ignore (Race.check_schedule p s)
  | Error e -> Alcotest.failf "schedule: %s" e);
  let inputs = Array.make (Array.length p.Program.pi_cells) true in
  ignore (Controller.run_grouped ~geometry:grid p ~inputs);
  p.Program.code = before

let test_suite_code_untouched () =
  iter_suite_widths (fun name p cols ->
      if not (code_untouched p cols) then
        Alcotest.failf "%s at %d columns: a consumer wrote the program's code" name cols)

let prop_code_untouched =
  QCheck.Test.make ~count:200
    ~name:"schedule, validate, race and run_grouped leave the code as it was"
    QCheck.(pair program_arb (int_range 1 10))
    (fun (p, cols) -> code_untouched p cols)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "geometry"
    [ ( "grid",
        [ Alcotest.test_case "make / area" `Quick test_make;
          Alcotest.test_case "of_string / to_string" `Quick test_of_string;
          Alcotest.test_case "row-major placement" `Quick test_placement;
          Alcotest.test_case "grid_for" `Quick test_grid_for ] );
      ( "schedule",
        [ Alcotest.test_case "area overflow rejected" `Quick
            test_schedule_rejects_overflow;
          Alcotest.test_case "independent ops share a row group" `Quick
            test_parallel_row;
          Alcotest.test_case "cols=1 degenerates to serial" `Quick
            test_serial_column;
          Alcotest.test_case "hazards serialize" `Quick test_hazard_serializes;
          Alcotest.test_case "suite invariants across grids" `Quick
            test_suite_invariants;
          Alcotest.test_case "deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "small suite = reference scheduler" `Quick
            test_suite_reference;
          Alcotest.test_case "direct-major words per instruction" `Quick
            test_schedule_words;
          Alcotest.test_case "small suite code untouched" `Quick
            test_suite_code_untouched ] );
      ( "execution",
        [ Alcotest.test_case "grouped run = flat run (suite)" `Quick
            test_run_grouped_identity;
          Alcotest.test_case "grouped wear = flat wear" `Quick
            test_run_grouped_wear_identity;
          Alcotest.test_case "static_groups" `Quick test_static_groups ] );
      ( "properties",
        [ qc prop_schedule_valid; qc prop_grouped_matches_flat;
          qc prop_schedule_reference; qc prop_code_untouched ] ) ]
