(** Textual PLiM assembly, round-trippable:

    {v
    ; plim assembly
    .cells 12
    .in a %0
    .in b %1
    .out sum %7
    RM3 %0, 1, %3
    RM3 0, %2, %5
    v} *)

val to_string : Program.t -> string

val of_string : string -> (Program.t, string) result
(** [Error] on malformed input: an unrecognised line, a bad operand, a
    negative cell count or cell reference (each with its line number), a
    missing [.cells] directive, or a program {!Program.make} rejects
    (a cell out of range, a duplicate input or output name). *)

val read_file : string -> (Program.t, string) result
(** {!of_string} on the file's contents; [Error] also when the file
    cannot be read or is a directory ({!Plim_util.File.read}). *)
