(** Whole-file reading and writing, shared by every reader of a file
    format and every writer of an output file. *)

val read : string -> (string, string) result
(** [read path] is the whole contents of the file at [path], read as
    bytes.  [Error "PATH: REASON"] when it cannot be opened or read, and
    [Error "PATH: is a directory"] for a directory, which the
    operating system would let [open_in] open and then fail to size. *)

val write : string -> string -> (unit, string) result
(** [write path contents] replaces the file at [path] with [contents].
    [Error "PATH: REASON"] when it cannot be opened, written or closed. *)
