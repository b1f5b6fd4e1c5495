(* The one JSON string escaper of the repo.  Plim_telemetry.Json's
   writer and the few writers with their own number formats (trace
   events, Chrome traces) escape every string through here: a benchmark
   or strategy label containing '"' or '\' otherwise corrupts the
   emitted document and breaks every downstream reader, including the
   bench/compare.exe regression gate.

   Bytes >= 0x20 other than '"' and '\' pass through verbatim: labels
   are treated as UTF-8 and JSON does not require escaping non-ASCII.
   Control characters use the short escapes where JSON has them and
   \u00XX otherwise, which is exactly the input language of
   Plim_telemetry.Json — escape/parse round-trips every byte string. *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let quote s =
  let b = Buffer.create (String.length s + 10) in
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"';
  Buffer.contents b
