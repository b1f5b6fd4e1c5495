type t = {
  instrs : Instruction.t array;
  num_cells : int;
  pi_cells : (string * int) array;
  po_cells : (string * int) array;
}

let validate t =
  let check_cell what i =
    if i < 0 || i >= t.num_cells then
      invalid_arg
        (Printf.sprintf "Program.make: %s cell %d out of range (num_cells %d)" what i
           t.num_cells)
  in
  Array.iter
    (fun (instr : Instruction.t) ->
      (match instr.Instruction.a with
      | Instruction.Cell i -> check_cell "operand" i
      | Instruction.Const _ -> ());
      (match instr.Instruction.b with
      | Instruction.Cell i -> check_cell "operand" i
      | Instruction.Const _ -> ());
      check_cell "destination" instr.Instruction.z)
    t.instrs;
  Array.iter (fun (_, i) -> check_cell "input" i) t.pi_cells;
  Array.iter (fun (_, i) -> check_cell "output" i) t.po_cells;
  (* Names must be unique per direction: a duplicate would make the
     input-vector and output maps ambiguous.  Cells may be shared — two
     inputs when the compiler reuses the device of an input nothing reads,
     two outputs when they reference the same MIG node. *)
  let check_names what names =
    let tbl = Hashtbl.create 16 in
    Array.iter
      (fun (name, _) ->
        if Hashtbl.mem tbl name then
          invalid_arg (Printf.sprintf "Program.make: duplicate %s name %S" what name);
        Hashtbl.add tbl name ())
      names
  in
  check_names "input" t.pi_cells;
  check_names "output" t.po_cells

let make ~instrs ~num_cells ~pi_cells ~po_cells =
  let t = { instrs; num_cells; pi_cells; po_cells } in
  validate t;
  t

let length t = Array.length t.instrs

let num_cells t = t.num_cells

let static_write_counts t =
  let counts = Array.make t.num_cells 0 in
  Array.iter
    (fun (instr : Instruction.t) ->
      counts.(instr.Instruction.z) <- counts.(instr.Instruction.z) + 1)
    t.instrs;
  counts

let iter f t = Array.iter f t.instrs

let bind_by_name ~caller pi_cells inputs =
  let bound = Hashtbl.create 16 in
  List.iter
    (fun (name, v) ->
      if Hashtbl.mem bound name then
        invalid_arg (Printf.sprintf "%s: duplicate input %S" caller name);
      Hashtbl.add bound name v)
    inputs;
  let values =
    Array.map
      (fun (name, _) ->
        match Hashtbl.find_opt bound name with
        | Some v ->
          Hashtbl.remove bound name;
          v
        | None -> invalid_arg (Printf.sprintf "%s: missing input %S" caller name))
      pi_cells
  in
  if Hashtbl.length bound > 0 then invalid_arg (caller ^ ": unknown extra inputs");
  values

(* Inputs in [pi_cells] order, as [inputs_of_vector] produces them, bind
   by position with no table.  With distinct input names such a list has
   no duplicate, missing or extra input, so only the by-name path, which
   every other list takes, raises. *)
let bind_inputs ~caller pi_cells inputs =
  let n = Array.length pi_cells in
  let values = Array.make n false in
  let rec in_order i = function
    | [] -> i = n
    | (name, v) :: rest ->
      i < n
      && String.equal name (fst pi_cells.(i))
      && begin
        values.(i) <- v;
        in_order (i + 1) rest
      end
  in
  if in_order 0 inputs then values else bind_by_name ~caller pi_cells inputs

let inputs_of_vector pi_cells values =
  if Array.length values <> Array.length pi_cells then
    invalid_arg "Program.inputs_of_vector: input arity mismatch";
  Array.to_list (Array.mapi (fun i (name, _) -> (name, values.(i))) pi_cells)

let read_outputs po_cells read =
  Array.to_list (Array.map (fun (name, cell) -> (name, read cell)) po_cells)

let operand read = function
  | Instruction.Const v -> v
  | Instruction.Cell i -> read i
