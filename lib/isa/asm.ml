let to_string (p : Program.t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "; plim assembly\n";
  Buffer.add_string buf (Printf.sprintf ".cells %d\n" p.Program.num_cells);
  Array.iter
    (fun (name, cell) -> Buffer.add_string buf (Printf.sprintf ".in %s %%%d\n" name cell))
    p.Program.pi_cells;
  Array.iter
    (fun (name, cell) -> Buffer.add_string buf (Printf.sprintf ".out %s %%%d\n" name cell))
    p.Program.po_cells;
  for i = 0 to Program.length p - 1 do
    Buffer.add_string buf (Instruction.to_string (Program.instr p i));
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

exception Parse_error of string

let fail line msg = raise (Parse_error (Printf.sprintf "Asm.of_string: line %d: %s" line msg))

let parse_operand line tok =
  if tok = "0" then Instruction.Const false
  else if tok = "1" then Instruction.Const true
  else if String.length tok > 1 && tok.[0] = '%' then
    match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
    | Some i when i >= 0 -> Instruction.Cell i
    | Some _ -> fail line (Printf.sprintf "negative cell reference %S" tok)
    | None -> fail line (Printf.sprintf "bad operand %S" tok)
  else fail line (Printf.sprintf "bad operand %S" tok)

let parse_cell line tok =
  match parse_operand line tok with
  | Instruction.Cell i -> i
  | Instruction.Const _ -> fail line "expected a cell reference"

let parse text =
  let num_cells = ref None in
  let pis = ref [] and pos = ref [] and instrs = ref [] in
  let lineno = ref 0 in
  let strip_comment line =
    match String.index_opt line ';' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  List.iter
    (fun raw ->
      incr lineno;
      let line = String.trim (strip_comment raw) in
      if line = "" then ()
      else begin
        let tokens =
          String.split_on_char ' ' (String.map (fun c -> if c = ',' then ' ' else c) line)
          |> List.filter (fun s -> s <> "")
        in
        match tokens with
        | [ ".cells"; n ] ->
          (match int_of_string_opt n with
          | Some n when n >= 0 -> num_cells := Some n
          | _ -> fail !lineno "bad cell count")
        | [ ".in"; name; cell ] -> pis := (name, parse_cell !lineno cell) :: !pis
        | [ ".out"; name; cell ] -> pos := (name, parse_cell !lineno cell) :: !pos
        | [ "RM3"; a; b; z ] ->
          let a = parse_operand !lineno a
          and b = parse_operand !lineno b
          and z = parse_cell !lineno z in
          instrs := Instruction.rm3 ~a ~b ~z :: !instrs
        | _ -> fail !lineno "unrecognised line"
      end)
    (String.split_on_char '\n' text);
  match !num_cells with
  | None -> raise (Parse_error "Asm.of_string: missing .cells directive")
  | Some num_cells ->
    Program.make
      ~instrs:(Array.of_list (List.rev !instrs))
      ~num_cells
      ~pi_cells:(Array.of_list (List.rev !pis))
      ~po_cells:(Array.of_list (List.rev !pos))

let of_string text =
  match parse text with
  | p -> Ok p
  | exception Parse_error msg -> Error msg
  | exception Invalid_argument msg -> Error ("Asm.of_string: " ^ msg)

let read_file path = Result.bind (Plim_util.File.read path) of_string
