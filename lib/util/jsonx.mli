(** The one JSON string escaper.

    {!Plim_telemetry.Json.write} escapes every string through here, as
    do the two writers with their own number formats (trace events and
    Chrome traces); a label containing ['"'] or ['\\'] must never reach
    a document unescaped.

    The escape language matches what {!Plim_telemetry.Json} accepts:
    short escapes for ["\"\\\n\t\r\b\012"], [\u00XX] for the remaining
    control bytes, everything else verbatim (UTF-8 passes through).
    [parse (quote s) = Str s] for every byte string [s]. *)

val escape_into : Buffer.t -> string -> unit
(** Append the escaped form of the string — without quotes — to the
    buffer. *)

val quote : string -> string
(** The escaped form wrapped in double quotes: a complete JSON string
    literal. *)
