exception Parse_error of int * string

let fail line msg = raise (Parse_error (line, msg))

(* logical lines: strip comments, join '\'-continued lines *)
let logical_lines text =
  let raw = String.split_on_char '\n' text in
  let rec join acc lineno = function
    | [] -> List.rev acc
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let line = String.trim line in
      if String.length line > 0 && line.[String.length line - 1] = '\\' then begin
        match rest with
        | next :: rest' ->
          let merged = String.sub line 0 (String.length line - 1) ^ " " ^ next in
          join acc (lineno + 1) (merged :: rest')
        | [] -> fail lineno "dangling line continuation"
      end
      else join ((lineno, line) :: acc) (lineno + 1) rest
  in
  join [] 1 raw

let tokens line = String.split_on_char ' ' line |> List.filter (fun s -> s <> "")

type cover = {
  gate_inputs : string list;
  gate_output : string;
  mutable cubes : (string * char) list; (* input pattern, output value *)
  declared_at : int;
}

let parse text =
  let inputs = ref [] and outputs = ref [] in
  let covers = ref [] in
  let current = ref None in
  let finish () =
    match !current with
    | Some c ->
      covers := c :: !covers;
      current := None
    | None -> ()
  in
  let cube_value lineno value =
    if value <> "0" && value <> "1" then fail lineno "cube output must be 0 or 1";
    value.[0]
  in
  let declare lineno names = List.map (fun n -> (lineno, n)) names in
  List.iter
    (fun (lineno, line) ->
      if line = "" then ()
      else
        match (tokens line, !current) with
        | ".model" :: _, _ -> ()
        | ".inputs" :: names, _ -> inputs := !inputs @ declare lineno names
        | ".outputs" :: names, _ -> outputs := !outputs @ declare lineno names
        | ".names" :: signals, _ -> (
          finish ();
          match List.rev signals with
          | gate_output :: rev_inputs ->
            current :=
              Some
                { gate_inputs = List.rev rev_inputs;
                  gate_output;
                  cubes = [];
                  declared_at = lineno }
          | [] -> fail lineno ".names without signals")
        | [ ".end" ], _ -> finish ()
        | (".latch" | ".subckt" | ".gate") :: _, _ ->
          fail lineno "only combinational single-model BLIF is supported"
        | [ pattern; value ], Some c ->
          if String.length pattern <> List.length c.gate_inputs then
            fail lineno "cube arity does not match .names inputs";
          String.iter
            (fun ch ->
              if ch <> '0' && ch <> '1' && ch <> '-' then
                fail lineno (Printf.sprintf "bad cube character %C" ch))
            pattern;
          c.cubes <- (pattern, cube_value lineno value) :: c.cubes
        | [ value ], Some c ->
          (* constant cover: ".names x" followed by "1" (or nothing = 0) *)
          if c.gate_inputs <> [] then fail lineno "missing cube input pattern";
          c.cubes <- ("", cube_value lineno value) :: c.cubes
        | _ -> fail lineno (Printf.sprintf "unrecognised line %S" line))
    (logical_lines text);
  finish ();
  let covers = List.rev !covers in
  (* build the MIG: inputs first, then covers in topological order *)
  let g = Mig.create () in
  let env : (string, Mig.signal) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (lineno, name) ->
      if Hashtbl.mem env name then fail lineno (Printf.sprintf "duplicate input %S" name);
      Hashtbl.replace env name (Mig.add_input g name))
    !inputs;
  let by_output = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace by_output c.gate_output c) covers;
  let visiting = Hashtbl.create 16 in
  (* [lineno] is the line that references [name] *)
  let rec signal_of lineno name =
    match Hashtbl.find_opt env name with
    | Some s -> s
    | None ->
      (match Hashtbl.find_opt by_output name with
      | None -> fail lineno (Printf.sprintf "undriven signal %S" name)
      | Some c ->
        if Hashtbl.mem visiting name then
          fail c.declared_at (Printf.sprintf "combinational cycle through %S" name);
        Hashtbl.replace visiting name ();
        let s = build_cover c in
        Hashtbl.remove visiting name;
        Hashtbl.replace env name s;
        s)
  and build_cover c =
    let input_signals = List.map (signal_of c.declared_at) c.gate_inputs in
    (* single-output cover: OR over cubes of AND over literals; the
       on-set is given by cubes with output '1', otherwise the cover
       describes the off-set and is complemented *)
    let on_cubes = List.filter (fun (_, v) -> v = '1') c.cubes in
    let off_form = on_cubes = [] && c.cubes <> [] in
    let cubes = if off_form then c.cubes else on_cubes in
    let cube_signal (pattern, _) =
      let acc = ref Mig.true_ in
      List.iteri
        (fun i s ->
          match pattern.[i] with
          | '1' -> acc := Mig.and_ g !acc s
          | '0' -> acc := Mig.and_ g !acc (Mig.not_ s)
          | _ -> ())
        input_signals;
      !acc
    in
    match (c.cubes, c.gate_inputs) with
    | [], _ -> Mig.false_ (* empty cover = constant 0 *)
    | _, [] ->
      (* constant cover *)
      if List.exists (fun (_, v) -> v = '1') c.cubes then Mig.true_ else Mig.false_
    | _, _ ->
      let sum =
        List.fold_left (fun acc cube -> Mig.or_ g acc (cube_signal cube)) Mig.false_ cubes
      in
      if off_form then Mig.not_ sum else sum
  in
  List.iter
    (fun (lineno, name) -> Mig.add_output g name (signal_of lineno name))
    !outputs;
  g

let of_string text =
  match parse text with
  | g -> Ok g
  | exception Parse_error (line, msg) ->
    Error (Printf.sprintf "Blif.of_string: line %d: %s" line msg)

(* ------------------------------------------------------------------ *)

let node_name id = Printf.sprintf "n%d" id

(* constant children are always referenced through the 0-valued net
   "$false"; their polarity is folded into the cube pattern like any
   other complemented edge *)
let signal_name g s =
  let id = Mig.node_of s in
  match Mig.kind g id with
  | Mig.Const -> "$false"
  | Mig.Input pi -> Mig.input_name g pi
  | Mig.Maj _ -> node_name id

let to_string g =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf ".model mig\n.inputs";
  Array.iter (fun n -> Buffer.add_string buf (" " ^ n)) (Mig.input_names g);
  Buffer.add_string buf "\n.outputs";
  Array.iter (fun (n, _) -> Buffer.add_string buf (" " ^ n)) (Mig.outputs g);
  Buffer.add_char buf '\n';
  (* constants, if referenced *)
  let uses_const = ref false in
  Mig.iter_reachable_maj g (fun id ->
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        if Mig.is_const a || Mig.is_const b || Mig.is_const c then uses_const := true
      | Mig.Const | Mig.Input _ -> ());
  if !uses_const then Buffer.add_string buf ".names $false\n";
  (* one .names per majority node: the 8-minterm cover of <a b c> with
     polarities folded into the cube patterns *)
  Mig.iter_reachable_maj g (fun id ->
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s %s %s\n" (signal_name g a) (signal_name g b)
             (signal_name g c) (node_name id));
        let lit s bit = if Mig.is_complemented s then 1 - bit else bit in
        for m = 0 to 7 do
          let va = m land 1 and vb = (m lsr 1) land 1 and vc = (m lsr 2) land 1 in
          if va + vb + vc >= 2 then
            Buffer.add_string buf
              (Printf.sprintf "%d%d%d 1\n" (lit a va) (lit b vb) (lit c vc))
        done
      | Mig.Const | Mig.Input _ -> ());
  (* output buffers / inverters *)
  Array.iter
    (fun (name, s) ->
      let src = signal_name g s in
      if Mig.is_const s then begin
        Buffer.add_string buf (Printf.sprintf ".names %s\n" name);
        if Mig.is_complemented s then Buffer.add_string buf "1\n"
      end
      else if Mig.is_complemented s then
        Buffer.add_string buf (Printf.sprintf ".names %s %s\n0 1\n" src name)
      else Buffer.add_string buf (Printf.sprintf ".names %s %s\n1 1\n" src name))
    (Mig.outputs g);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf

let read_file path = Result.bind (Plim_util.File.read path) of_string
