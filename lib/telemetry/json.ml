(* The repo's one JSON value type, reader and writer, with no dependency
   the container does not bake in.  Objects keep their key order; the
   reader makes every number a [Num] float (every numeric field in
   plim-bench fits a double exactly or is already a float). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let parse s =
  let exception Parse_error of string in
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal w v =
    String.iter expect w;
    v
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some '"' -> advance (); Buffer.add_char b '"'; go ()
        | Some '\\' -> advance (); Buffer.add_char b '\\'; go ()
        | Some '/' -> advance (); Buffer.add_char b '/'; go ()
        | Some 'b' -> advance (); Buffer.add_char b '\b'; go ()
        | Some 'f' -> advance (); Buffer.add_char b '\012'; go ()
        | Some 'n' -> advance (); Buffer.add_char b '\n'; go ()
        | Some 'r' -> advance (); Buffer.add_char b '\r'; go ()
        | Some 't' -> advance (); Buffer.add_char b '\t'; go ()
        | Some 'u' ->
          advance ();
          let code = ref 0 in
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' as c) -> code := (!code * 16) + (Char.code c - 48)
            | Some ('a' .. 'f' as c) -> code := (!code * 16) + (Char.code c - 87)
            | Some ('A' .. 'F' as c) -> code := (!code * 16) + (Char.code c - 55)
            | _ -> fail "bad \\u escape");
            advance ()
          done;
          (* UTF-8 encode the BMP code point; plim-bench files are ASCII,
             this is completeness only *)
          let c = !code in
          if c < 0x80 then Buffer.add_char b (Char.chr c)
          else if c < 0x800 then begin
            Buffer.add_char b (Char.chr (0xC0 lor (c lsr 6)));
            Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
          end
          else begin
            Buffer.add_char b (Char.chr (0xE0 lor (c lsr 12)));
            Buffer.add_char b (Char.chr (0x80 lor ((c lsr 6) land 0x3F)));
            Buffer.add_char b (Char.chr (0x80 lor (c land 0x3F)))
          end;
          go ()
        | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control character in string"
      | Some c ->
        advance ();
        Buffer.add_char b c;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let d0 = !pos in
      let rec go () =
        match peek () with Some '0' .. '9' -> advance (); go () | _ -> ()
      in
      go ();
      if !pos = d0 then fail "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  (* The reader recurses once per nesting level, so an adversarial (or
     merely corrupted) input of a few hundred kilobytes of '[' would
     blow the OCaml stack with a Stack_overflow the caller cannot
     distinguish from a bug.  Bound the depth explicitly and fail with
     a regular parse error instead; no plim-bench artefact nests more
     than a dozen levels deep. *)
  let max_depth = 256 in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    let v =
      match peek () with
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = string_lit () in
            skip_ws ();
            expect ':';
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              members ((key, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec elements acc =
            let v = value (depth + 1) in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              elements (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (elements [])
        end
      | Some '"' -> Str (string_lit ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> Num (number ())
      | _ -> fail "unexpected token"
    in
    skip_ws ();
    v
  in
  match
    let v = value 0 in
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let parse_file path =
  Result.bind (Plim_util.File.read path) (fun s ->
      Result.map_error (Printf.sprintf "%s: %s" path) (parse s))

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float = function
  | Num f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string = function
  | Str s -> Some s
  | _ -> None

let to_list = function
  | Arr l -> Some l
  | _ -> None

(* [open_] items [close], comma-separated *)
let write_seq b open_ close items write =
  Buffer.add_char b open_;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; write x) items;
  Buffer.add_char b close

(* JSON has no nan or infinities: a non-finite [Num] is written [null] *)
let rec write_into b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int i -> Buffer.add_string b (string_of_int i)
  | Num x when Float.is_finite x -> Printf.bprintf b "%.6g" x
  | Num _ -> Buffer.add_string b "null"
  | Str s ->
    Buffer.add_char b '"';
    Plim_util.Jsonx.escape_into b s;
    Buffer.add_char b '"'
  | Arr vs -> write_seq b '[' ']' vs (write_into b)
  | Obj kvs ->
    write_seq b '{' '}' kvs (fun (k, v) ->
        write_into b (Str k);
        Buffer.add_char b ':';
        write_into b v)

let write v =
  let b = Buffer.create 256 in
  write_into b v;
  Buffer.contents b
