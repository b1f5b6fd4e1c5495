(* The one emitter of the [.mig] text: [to_string] collects it in a
   buffer, [digest] hashes it as it is produced. *)
type sink = { char : char -> unit; string : string -> unit; int : int -> unit }

let emit k g =
  (* an operand with its leading space *)
  let operand s =
    k.string (if Mig.is_complemented s then " ~" else " ");
    k.int (Mig.node_of s)
  in
  k.string "mig\n";
  for pi = 0 to Mig.num_inputs g - 1 do
    k.string ".input ";
    k.int (Mig.node_of (Mig.input_signal g pi));
    k.char ' ';
    k.string (Mig.input_name g pi);
    k.char '\n'
  done;
  Mig.iter_reachable_maj g (fun id ->
      k.string ".node ";
      k.int id;
      operand (Mig.child g id 0);
      operand (Mig.child g id 1);
      operand (Mig.child g id 2);
      k.char '\n');
  for o = 0 to Mig.num_outputs g - 1 do
    let name, s = Mig.output g o in
    k.string ".output ";
    k.string name;
    operand s;
    k.char '\n'
  done

let to_string g =
  let buf = Buffer.create 4096 in
  emit
    { char = Buffer.add_char buf;
      string = Buffer.add_string buf;
      int = (fun n -> Buffer.add_string buf (string_of_int n)) }
    g;
  Buffer.contents buf

let digest g =
  let h = Plim_util.Fnv.create () in
  emit
    { char = Plim_util.Fnv.add_char h;
      string = Plim_util.Fnv.add_string h;
      int = Plim_util.Fnv.add_int h }
    g;
  Plim_util.Fnv.hex h

exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

let parse text =
  let g = Mig.create () in
  (* old node id -> signal in the new graph *)
  let map = Hashtbl.create 256 in
  Hashtbl.add map 0 Mig.false_;
  let parse_id line what tok =
    match int_of_string_opt tok with
    | Some id -> id
    | None -> fail line ("bad " ^ what)
  in
  let define line id s =
    if Hashtbl.mem map id then fail line (Printf.sprintf "node %d defined twice" id);
    Hashtbl.add map id s
  in
  let parse_operand line tok =
    let compl_, tok =
      if String.length tok > 0 && tok.[0] = '~' then
        (true, String.sub tok 1 (String.length tok - 1))
      else (false, tok)
    in
    let id = parse_id line "operand" tok in
    match Hashtbl.find_opt map id with
    | Some s -> if compl_ then Mig.not_ s else s
    | None -> fail line (Printf.sprintf "operand references unknown node %d" id)
  in
  let lines = String.split_on_char '\n' text in
  let lineno = ref 0 in
  let header_seen = ref false in
  List.iter
    (fun raw ->
      incr lineno;
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else if not !header_seen then
        if line = "mig" then header_seen := true
        else fail !lineno "expected 'mig' header"
      else
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | [ ".input"; id; name ] ->
          let id = parse_id !lineno "input id" id in
          (match Mig.add_input g name with
          | s -> define !lineno id s
          | exception Invalid_argument _ ->
            fail !lineno (Printf.sprintf "duplicate input %S" name))
        | [ ".node"; id; a; b; c ] ->
          let id = parse_id !lineno "node id" id in
          let a = parse_operand !lineno a
          and b = parse_operand !lineno b
          and c = parse_operand !lineno c in
          define !lineno id (Mig.maj g a b c)
        | [ ".output"; name; s ] ->
          Mig.add_output g name (parse_operand !lineno s)
        | _ -> fail !lineno "unrecognised line")
    lines;
  if not !header_seen then fail !lineno "no 'mig' header before the end of the input";
  Mig.drop_strash g;
  g

let of_string text =
  match parse text with
  | g -> Ok g
  | exception Parse_error (line, msg) ->
    Error (Printf.sprintf "Mig_io.of_string: line %d: %s" line msg)

let to_dot g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph mig {\n  rankdir=BT;\n";
  Buffer.add_string buf "  n0 [label=\"0\", shape=box];\n";
  Array.iteri
    (fun pi input_name ->
      let id = Mig.node_of (Mig.input_signal g pi) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=invtriangle];\n" id input_name))
    (Mig.input_names g);
  let edge src dst s =
    Buffer.add_string buf
      (Printf.sprintf "  n%d -> n%d%s;\n" src dst
         (if Mig.is_complemented s then " [style=dashed]" else ""))
  in
  Mig.iter_reachable_maj g (fun id ->
      Buffer.add_string buf (Printf.sprintf "  n%d [label=\"MAJ %d\"];\n" id id);
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        edge (Mig.node_of a) id a;
        edge (Mig.node_of b) id b;
        edge (Mig.node_of c) id c
      | Mig.Const | Mig.Input _ -> assert false);
  Array.iteri
    (fun i (oname, s) ->
      Buffer.add_string buf
        (Printf.sprintf "  o%d [label=\"%s\", shape=triangle];\n" i oname);
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> o%d%s;\n" (Mig.node_of s) i
           (if Mig.is_complemented s then " [style=dashed]" else "")))
    (Mig.outputs g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let read_file path = Result.bind (Plim_util.File.read path) of_string
