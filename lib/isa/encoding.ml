let address_bits ~num_cells =
  let rec go bits capacity =
    if capacity >= num_cells then bits else go (bits + 1) (capacity * 2)
  in
  go 1 2

let operand_bits ~num_cells = 1 + address_bits ~num_cells

let instruction_bits ~num_cells = (2 * operand_bits ~num_cells) + address_bits ~num_cells

let check_cell ~num_cells i =
  if i < 0 || i >= num_cells then
    invalid_arg (Printf.sprintf "Encoding: cell %d out of range (num_cells %d)" i num_cells)

let write_address ~num_cells bits offset value =
  check_cell ~num_cells value;
  let w = address_bits ~num_cells in
  for k = 0 to w - 1 do
    bits.(offset + k) <- (value lsr k) land 1 = 1
  done

let read_address ~num_cells bits offset =
  let w = address_bits ~num_cells in
  let v = ref 0 in
  for k = w - 1 downto 0 do
    v := (!v lsl 1) lor (if bits.(offset + k) then 1 else 0)
  done;
  check_cell ~num_cells !v;
  !v

let write_operand ~num_cells bits offset (operand : Instruction.operand) =
  match operand with
  | Instruction.Const v ->
    bits.(offset) <- false;
    bits.(offset + 1) <- v
  | Instruction.Cell i ->
    bits.(offset) <- true;
    write_address ~num_cells bits (offset + 1) i

let read_operand ~num_cells bits offset =
  if bits.(offset) then Instruction.Cell (read_address ~num_cells bits (offset + 1))
  else Instruction.Const bits.(offset + 1)

let encode ~num_cells (i : Instruction.t) =
  let ob = operand_bits ~num_cells in
  let bits = Array.make (instruction_bits ~num_cells) false in
  write_operand ~num_cells bits 0 i.Instruction.a;
  write_operand ~num_cells bits ob i.Instruction.b;
  write_address ~num_cells bits (2 * ob) i.Instruction.z;
  bits

let decode ~num_cells bits =
  if Array.length bits <> instruction_bits ~num_cells then
    invalid_arg "Encoding.decode: wrong bit count";
  let ob = operand_bits ~num_cells in
  let a = read_operand ~num_cells bits 0 in
  let b = read_operand ~num_cells bits ob in
  let z = read_address ~num_cells bits (2 * ob) in
  Instruction.rm3 ~a ~b ~z

let encode_program (p : Program.t) =
  let num_cells = p.Program.num_cells in
  let per = instruction_bits ~num_cells in
  let bits = Array.make (per * Program.length p) false in
  for idx = 0 to Program.length p - 1 do
    Array.blit (encode ~num_cells (Program.instr p idx)) 0 bits (idx * per) per
  done;
  bits

type footprint = {
  data_cells : int;
  instruction_cells : int;
  total_cells : int;
  instruction_overhead : float;
}

let footprint (p : Program.t) =
  let data_cells = p.Program.num_cells in
  let instruction_cells =
    Program.length p * instruction_bits ~num_cells:data_cells
  in
  { data_cells;
    instruction_cells;
    total_cells = data_cells + instruction_cells;
    instruction_overhead =
      (if data_cells = 0 then 0.0
       else float_of_int instruction_cells /. float_of_int data_cells) }

let pp_footprint ppf f =
  Format.fprintf ppf "data %d + instructions %d = %d cells (%.1fx overhead)" f.data_cells
    f.instruction_cells f.total_cells f.instruction_overhead
