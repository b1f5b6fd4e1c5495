module I = Plim_isa.Instruction
module Program = Plim_isa.Program
module Asm = Plim_isa.Asm

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- instruction -------------------------------------------------------- *)

let test_semantics_table () =
  (* Z <- <A, !B, Z> *)
  let cases =
    [ (false, false, false, false);
      (true, false, false, true);    (* <1,1,0> = 1 *)
      (false, true, false, false);
      (false, false, true, true);    (* <0,1,1> = 1 *)
      (true, true, false, false);    (* <1,0,0> = 0 *)
      (true, false, true, true);
      (false, true, true, false);    (* <0,0,1> = 0 *)
      (true, true, true, true) ]
  in
  List.iter
    (fun (a, b, z, want) ->
      check_bool (Printf.sprintf "a=%b b=%b z=%b" a b z) want (I.semantics ~a ~b ~z))
    cases

let test_set_const () =
  List.iter
    (fun z0 ->
      check_bool "set 1 from any state" true
        (let i = I.set_const true 0 in
         match (i.I.a, i.I.b) with
         | I.Const a, I.Const b -> I.semantics ~a ~b ~z:z0 = true
         | _ -> false);
      check_bool "set 0 from any state" true
        (let i = I.set_const false 0 in
         match (i.I.a, i.I.b) with
         | I.Const a, I.Const b -> I.semantics ~a ~b ~z:z0 = false
         | _ -> false))
    [ false; true ]

let test_validation () =
  Alcotest.check_raises "negative dest" (Invalid_argument "Instruction.rm3: negative destination")
    (fun () -> ignore (I.rm3 ~a:(I.Const true) ~b:(I.Const false) ~z:(-1)));
  Alcotest.check_raises "negative operand"
    (Invalid_argument "Instruction.rm3: negative operand cell") (fun () ->
      ignore (I.rm3 ~a:(I.Cell (-2)) ~b:(I.Const false) ~z:0))

let test_printing () =
  Alcotest.(check string) "pp" "RM3 %3, 1, %7"
    (I.to_string (I.rm3 ~a:(I.Cell 3) ~b:(I.Const true) ~z:7))

(* --- program ------------------------------------------------------------- *)

let sample_program () =
  Program.make
    ~instrs:
      [| I.set_const true 2;
         I.rm3 ~a:(I.Cell 0) ~b:(I.Cell 1) ~z:2;
         I.rm3 ~a:(I.Const false) ~b:(I.Cell 2) ~z:3 |]
    ~num_cells:4
    ~pi_cells:[| ("a", 0); ("b", 1) |]
    ~po_cells:[| ("y", 3) |]

let test_program_stats () =
  let p = sample_program () in
  check_int "#I" 3 (Program.length p);
  check_int "#R" 4 (Program.num_cells p);
  Alcotest.(check (array int)) "static writes" [| 0; 0; 2; 1 |] (Program.static_write_counts p)

let test_program_validation () =
  Alcotest.check_raises "dest out of range"
    (Invalid_argument "Program.make: destination cell 9 out of range (num_cells 2)")
    (fun () ->
      ignore
        (Program.make
           ~instrs:[| I.set_const true 9 |]
           ~num_cells:2 ~pi_cells:[||] ~po_cells:[||]));
  Alcotest.check_raises "input out of range"
    (Invalid_argument "Program.make: input cell 5 out of range (num_cells 2)") (fun () ->
      ignore (Program.make ~instrs:[||] ~num_cells:2 ~pi_cells:[| ("a", 5) |] ~po_cells:[||]))

(* Program.make packs each instruction into one int; [instr] decodes it.
   Operands are drawn to hit both constants, cell 0 and the top cell
   [max_cells - 1], whose operand code fills its 21-bit field. *)
let packed_roundtrip =
  let top = Program.max_cells - 1 in
  let cell = QCheck.Gen.(oneof [ return 0; return top; int_range 0 top ]) in
  let operand =
    QCheck.Gen.(
      oneof
        [ return (I.Const false); return (I.Const true); map (fun c -> I.Cell c) cell ])
  in
  let instr = QCheck.Gen.(map3 (fun a b z -> I.rm3 ~a ~b ~z) operand operand cell) in
  QCheck.Test.make ~count:200 ~name:"packed instruction round trip"
    (QCheck.make ~print:(QCheck.Print.array I.to_string) QCheck.Gen.(array_size (int_range 0 20) instr))
    (fun instrs ->
      let p =
        Program.make ~instrs ~num_cells:Program.max_cells ~pi_cells:[||] ~po_cells:[||]
      in
      Program.length p = Array.length instrs
      && Array.for_all Fun.id (Array.mapi (fun i x -> Program.instr p i = x) instrs))

let test_program_cell_limit () =
  check_int "max_cells = 2^21 - 2" ((1 lsl 21) - 2) Program.max_cells;
  check_int "field_mask" ((1 lsl Program.field_bits) - 1) Program.field_mask;
  let too_many = Program.max_cells + 1 in
  Alcotest.check_raises "num_cells past the limit"
    (Invalid_argument
       (Printf.sprintf "Program.make: num_cells %d outside [0, %d] (Program.max_cells)"
          too_many Program.max_cells))
    (fun () ->
      ignore (Program.make ~instrs:[||] ~num_cells:too_many ~pi_cells:[||] ~po_cells:[||]));
  (* a cell past the limit is refused before it is packed, whatever the
     cell count *)
  Alcotest.check_raises "operand past the limit"
    (Invalid_argument
       (Printf.sprintf "Program.make: operand cell %d out of range (num_cells %d)"
          Program.max_cells Program.max_cells))
    (fun () ->
      ignore
        (Program.make
           ~instrs:[| I.rm3 ~a:(I.Cell Program.max_cells) ~b:(I.Const false) ~z:0 |]
           ~num_cells:Program.max_cells ~pi_cells:[||] ~po_cells:[||]));
  (* packed words are range-checked the same way *)
  Alcotest.check_raises "packed operand out of range"
    (Invalid_argument "Program.of_code: operand cell 2 out of range (num_cells 2)")
    (fun () ->
      ignore
        (Program.of_code ~code:[| 4 lsl Program.field_bits |] ~num_cells:2 ~pi_cells:[||]
           ~po_cells:[||]))

let test_program_validation_edges () =
  (* an empty instruction stream is a valid (degenerate) program *)
  let p =
    Program.make ~instrs:[||] ~num_cells:1 ~pi_cells:[| ("a", 0) |]
      ~po_cells:[| ("y", 0) |]
  in
  check_int "empty #I" 0 (Program.length p);
  Alcotest.check_raises "output out of range"
    (Invalid_argument "Program.make: output cell 4 out of range (num_cells 2)")
    (fun () ->
      ignore
        (Program.make ~instrs:[||] ~num_cells:2 ~pi_cells:[||] ~po_cells:[| ("y", 4) |]));
  Alcotest.check_raises "duplicate output name"
    (Invalid_argument "Program.make: duplicate output name \"y\"") (fun () ->
      ignore
        (Program.make ~instrs:[||] ~num_cells:2 ~pi_cells:[||]
           ~po_cells:[| ("y", 0); ("y", 1) |]));
  Alcotest.check_raises "duplicate input name"
    (Invalid_argument "Program.make: duplicate input name \"a\"") (fun () ->
      ignore
        (Program.make ~instrs:[||] ~num_cells:2 ~pi_cells:[| ("a", 0); ("a", 1) |]
           ~po_cells:[||]));
  (* shared cells are legal compiler output: an unused input's device is
     reused by the next input, and two outputs may reference one node *)
  let q =
    Program.make ~instrs:[||] ~num_cells:1 ~pi_cells:[| ("a", 0); ("b", 0) |]
      ~po_cells:[| ("y", 0); ("z", 0) |]
  in
  check_int "shared cells accepted" 1 (Program.num_cells q)

(* An input vector binds by position: only its length can be wrong. *)
let test_check_inputs () =
  let pi_cells = [| ("a", 0); ("b", 1); ("c", 2) |] in
  Program.check_inputs ~caller:"T" pi_cells [| true; false; true |];
  Program.check_inputs ~caller:"T" [||] [||];
  let raises what msg values =
    Alcotest.check_raises what (Invalid_argument ("T: " ^ msg)) (fun () ->
        Program.check_inputs ~caller:"T" pi_cells values)
  in
  raises "short" "2 input values for 3 inputs" [| true; false |];
  raises "long" "4 input values for 3 inputs" [| true; false; true; true |];
  raises "empty" "0 input values for 3 inputs" [||]

(* --- assembly ------------------------------------------------------------- *)

let program_equal (p : Program.t) (q : Program.t) =
  p.Program.code = q.Program.code
  && p.Program.num_cells = q.Program.num_cells
  && p.Program.pi_cells = q.Program.pi_cells
  && p.Program.po_cells = q.Program.po_cells

(* parse (print p) = p *)
let reparses p =
  match Asm.of_string (Asm.to_string p) with
  | Ok q -> program_equal p q
  | Error _ -> false

let test_asm_roundtrip () = check_bool "roundtrip" true (reparses (sample_program ()))

let test_asm_parsing () =
  let text = "; comment line\n.cells 3\n.in a %0\n.out y %2\nRM3 %0, 1, %2 ; trailing\n\n" in
  let p = Result.get_ok (Asm.of_string text) in
  check_int "#I" 1 (Program.length p);
  check_int "cells" 3 (Program.num_cells p);
  Alcotest.(check (array (pair string int))) "pi" [| ("a", 0) |] p.Program.pi_cells

let check_asm_error what expected text =
  let got = Result.map Asm.to_string (Asm.of_string text) in
  Alcotest.(check (result string string)) what (Error expected) got

let test_asm_errors () =
  check_asm_error "missing cells" "Asm.of_string: missing .cells directive" "RM3 0, 1, %0";
  check_asm_error "bad operand" "Asm.of_string: line 2: bad operand \"x\""
    ".cells 1\nRM3 x, 1, %0";
  check_asm_error "const dest" "Asm.of_string: line 2: expected a cell reference"
    ".cells 1\nRM3 0, 1, 1"

(* every malformed input is an [Error], never an exception *)
(* a directory opens on Linux; reading it must be an [Error] naming it *)
let test_asm_directory () =
  let dir = Filename.current_dir_name in
  Alcotest.(check (result unit string))
    "directory" (Error (dir ^ ": is a directory"))
    (Result.map ignore (Asm.read_file dir))

let test_asm_fails_closed () =
  check_asm_error "garbage" "Asm.of_string: line 1: unrecognised line" "!!garbage!!";
  check_asm_error "negative cells" "Asm.of_string: line 1: bad cell count" ".cells -2";
  check_asm_error "negative operand" "Asm.of_string: line 2: negative cell reference \"%-1\""
    ".cells 2\nRM3 %-1, 1, %0";
  check_asm_error "negative input cell"
    "Asm.of_string: line 2: negative cell reference \"%-3\"" ".cells 2\n.in a %-3";
  check_asm_error "output out of range"
    "Asm.of_string: Program.make: output cell 5 out of range (num_cells 2)"
    ".cells 2\n.in a %0\n.out y %5";
  check_asm_error "destination out of range"
    "Asm.of_string: Program.make: destination cell 2 out of range (num_cells 2)"
    ".cells 2\nRM3 0, 1, %2";
  check_asm_error "duplicate input"
    "Asm.of_string: Program.make: duplicate input name \"a\""
    ".cells 2\n.in a %0\n.in a %1"

let asm_roundtrip_random =
  QCheck.Test.make ~count:100 ~name:"assembly roundtrip on random programs"
    QCheck.(list (triple (int_range 0 9) (int_range 0 9) (int_range 0 9)))
    (fun triples ->
      let operand i = if i = 0 then I.Const false else if i = 1 then I.Const true else I.Cell i in
      let instrs =
        List.map (fun (a, b, z) -> I.rm3 ~a:(operand a) ~b:(operand b) ~z) triples
        |> Array.of_list
      in
      let p =
        Program.make ~instrs ~num_cells:10 ~pi_cells:[| ("in0", 0) |]
          ~po_cells:[| ("out0", 9) |]
      in
      reparses p)

(* parse (print p) = p over real compiler output, not just synthetic
   streams: compiled programs exercise shared PI cells, complement
   temporaries and multi-output maps *)
let compiled_asm_roundtrip =
  QCheck.Test.make ~count:40 ~name:"assembly roundtrip on compiled programs"
    (Plim_check.Gen.arbitrary ~max_inputs:5 ~max_nodes:16 ())
    (fun desc ->
      let module Pipeline = Plim_core.Pipeline in
      let g = Plim_check.Gen.to_mig desc in
      let config = { Pipeline.endurance_full with Pipeline.effort = 1 } in
      let p = (Pipeline.compile config g).Pipeline.program in
      reparses p)

(* --- binary encoding -------------------------------------------------------- *)

module Encoding = Plim_isa.Encoding

let test_encoding_widths () =
  (* one instruction = 2 tagged operands + a destination address: 3w + 2
     cells, w the address bits of num_cells cells (at least 1) *)
  let instruction_cells num_cells =
    let p =
      Program.make ~instrs:[| I.set_const true 0 |] ~num_cells ~pi_cells:[||]
        ~po_cells:[||]
    in
    (Encoding.footprint p).Encoding.instruction_cells
  in
  check_int "1 cell" ((3 * 1) + 2) (instruction_cells 1);
  check_int "2 cells" ((3 * 1) + 2) (instruction_cells 2);
  check_int "3 cells" ((3 * 2) + 2) (instruction_cells 3);
  check_int "256 cells" ((3 * 8) + 2) (instruction_cells 256);
  check_int "257 cells" ((3 * 9) + 2) (instruction_cells 257)

let test_footprint () =
  let p = sample_program () in
  let f = Encoding.footprint p in
  check_int "data" 4 f.Encoding.data_cells;
  (* 4 cells -> 2 address bits, operand 3 bits, instruction 8 bits, 3 instrs *)
  check_int "instruction cells" 24 f.Encoding.instruction_cells;
  check_int "total" 28 f.Encoding.total_cells

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "isa"
    [ ( "instruction",
        [ Alcotest.test_case "semantics" `Quick test_semantics_table;
          Alcotest.test_case "set_const" `Quick test_set_const;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "printing" `Quick test_printing ] );
      ( "program",
        [ Alcotest.test_case "stats" `Quick test_program_stats;
          Alcotest.test_case "validation" `Quick test_program_validation;
          Alcotest.test_case "validation edges" `Quick test_program_validation_edges;
          Alcotest.test_case "cell limit" `Quick test_program_cell_limit;
          qc packed_roundtrip;
          Alcotest.test_case "input vector length" `Quick test_check_inputs ] );
      ( "assembly",
        [ Alcotest.test_case "roundtrip" `Quick test_asm_roundtrip;
          Alcotest.test_case "parsing" `Quick test_asm_parsing;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "malformed input fails closed" `Quick test_asm_fails_closed;
          Alcotest.test_case "a directory is refused" `Quick test_asm_directory;
          qc asm_roundtrip_random;
          qc compiled_asm_roundtrip ] );
      ( "encoding",
        [ Alcotest.test_case "address widths" `Quick test_encoding_widths;
          Alcotest.test_case "footprint" `Quick test_footprint ] ) ]
