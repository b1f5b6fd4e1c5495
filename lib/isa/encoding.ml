let address_bits ~num_cells =
  let rec go bits capacity =
    if capacity >= num_cells then bits else go (bits + 1) (capacity * 2)
  in
  go 1 2

let operand_bits ~num_cells = 1 + address_bits ~num_cells

let instruction_bits ~num_cells = (2 * operand_bits ~num_cells) + address_bits ~num_cells

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
