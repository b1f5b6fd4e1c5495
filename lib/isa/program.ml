type t = {
  code : int array;
  num_cells : int;
  pi_cells : (string * int) array;
  po_cells : (string * int) array;
}

(* One RM3 per int: z in bits 0-20, operand a in bits 21-41, operand b in
   bits 42-62.  An operand code is 0 for [Const false], 1 for [Const true]
   and cell + 2 for a cell, so the largest cell an operand can name is
   [field_mask - 2]. *)
let field_bits = 21
let field_mask = (1 lsl field_bits) - 1
let max_cells = field_mask - 1

let operand_code = function
  | Instruction.Const v -> Bool.to_int v
  | Instruction.Cell c -> c + 2

let decode_operand code =
  if code < 2 then Instruction.Const (code = 1) else Instruction.Cell (code - 2)

let instr t i =
  let w = t.code.(i) in
  { Instruction.a = decode_operand ((w lsr field_bits) land field_mask);
    b = decode_operand (w lsr (2 * field_bits));
    z = w land field_mask }

let out_of_range ~caller what i num_cells =
  invalid_arg
    (Printf.sprintf "%s: %s cell %d out of range (num_cells %d)" caller what i num_cells)

let check_num_cells ~caller num_cells =
  if num_cells < 0 || num_cells > max_cells then
    invalid_arg
      (Printf.sprintf "%s: num_cells %d outside [0, %d] (Program.max_cells)" caller
         num_cells max_cells)

(* The cell maps, shared by both constructors.  Names must be unique per
   direction: a duplicate would make the input-vector and output maps
   ambiguous.  Cells may be shared — two inputs when the compiler reuses
   the device of an input nothing reads, two outputs when they reference
   the same MIG node. *)
let check_maps ~caller ~num_cells pi_cells po_cells =
  let check_cell what (_, i) =
    if i < 0 || i >= num_cells then out_of_range ~caller what i num_cells
  in
  Array.iter (check_cell "input") pi_cells;
  Array.iter (check_cell "output") po_cells;
  let check_names what names =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun (name, _) ->
        if Hashtbl.mem tbl name then
          invalid_arg (Printf.sprintf "%s: duplicate %s name %S" caller what name);
        Hashtbl.add tbl name ())
      names
  in
  check_names "input" pi_cells;
  check_names "output" po_cells

(* Every cell is checked against [num_cells], itself at most [max_cells],
   before anything is packed, so no field wraps. *)
let make ~instrs ~num_cells ~pi_cells ~po_cells =
  let caller = "Program.make" in
  check_num_cells ~caller num_cells;
  let check_cell what i =
    if i < 0 || i >= num_cells then out_of_range ~caller what i num_cells
  in
  let check_operand = function
    | Instruction.Cell i -> check_cell "operand" i
    | Instruction.Const _ -> ()
  in
  Array.iter
    (fun (instr : Instruction.t) ->
      check_operand instr.Instruction.a;
      check_operand instr.Instruction.b;
      check_cell "destination" instr.Instruction.z)
    instrs;
  check_maps ~caller ~num_cells pi_cells po_cells;
  let code =
    Array.map
      (fun (instr : Instruction.t) ->
        instr.Instruction.z
        lor (operand_code instr.Instruction.a lsl field_bits)
        lor (operand_code instr.Instruction.b lsl (2 * field_bits)))
      instrs
  in
  { code; num_cells; pi_cells; po_cells }

(* Any int is three fields: [lsr] reads the top one, bit 62 included. *)
let of_code ~code ~num_cells ~pi_cells ~po_cells =
  let caller = "Program.of_code" in
  check_num_cells ~caller num_cells;
  for i = 0 to Array.length code - 1 do
    let w = code.(i) in
    let a = (w lsr field_bits) land field_mask
    and b = w lsr (2 * field_bits)
    and z = w land field_mask in
    if a >= num_cells + 2 then out_of_range ~caller "operand" (a - 2) num_cells;
    if b >= num_cells + 2 then out_of_range ~caller "operand" (b - 2) num_cells;
    if z >= num_cells then out_of_range ~caller "destination" z num_cells
  done;
  check_maps ~caller ~num_cells pi_cells po_cells;
  { code; num_cells; pi_cells; po_cells }

let length t = Array.length t.code

let num_cells t = t.num_cells

let static_write_counts t =
  let counts = Array.make t.num_cells 0 in
  for i = 0 to Array.length t.code - 1 do
    let z = t.code.(i) land field_mask in
    counts.(z) <- counts.(z) + 1
  done;
  counts

let check_inputs ~caller pi_cells values =
  let n = Array.length pi_cells in
  if Array.length values <> n then
    invalid_arg
      (Printf.sprintf "%s: %d input values for %d inputs" caller (Array.length values) n)

let read_outputs po_cells read =
  Array.to_list (Array.map (fun (name, cell) -> (name, read cell)) po_cells)
