let pp_operand buf s =
  if Mig.is_complemented s then Buffer.add_char buf '~';
  Buffer.add_string buf (string_of_int (Mig.node_of s))

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "mig\n";
  Array.iteri
    (fun pi name ->
      Buffer.add_string buf
        (Printf.sprintf ".input %d %s\n" (Mig.node_of (Mig.input_signal g pi)) name))
    (Mig.input_names g);
  Mig.iter_reachable_maj g (fun id ->
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        Buffer.add_string buf (Printf.sprintf ".node %d " id);
        pp_operand buf a;
        Buffer.add_char buf ' ';
        pp_operand buf b;
        Buffer.add_char buf ' ';
        pp_operand buf c;
        Buffer.add_char buf '\n'
      | Mig.Const | Mig.Input _ -> assert false);
  Array.iter
    (fun (name, s) ->
      Buffer.add_string buf (Printf.sprintf ".output %s " name);
      pp_operand buf s;
      Buffer.add_char buf '\n')
    (Mig.outputs g);
  Buffer.contents buf

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
  g

let of_string text =
  match parse text with
  | g -> Ok g
  | exception Parse_error (line, msg) ->
    Error (Printf.sprintf "Mig_io.of_string: line %d: %s" line msg)

let to_dot ?(name = "mig") g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n  rankdir=BT;\n" name);
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

let write_file path g =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string g))

let read_file path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | text -> of_string text
        | exception Sys_error msg -> Error msg)
