(** The one JSON module: a dependency-free recursive-descent reader and
    the writer behind every plim schema (bench, lint, wear, serve,
    horizon, cert, report and metrics documents).

    Objects preserve key order.  The reader makes every number a [Num].
    The writer is compact: [Int] as [%d], [Num] as [%.6g] (non-finite as
    [null]), strings through {!Plim_util.Jsonx.escape_into}; so
    [parse (write v)] is [v] with each [Int i] read back as
    [Num (float i)] and each [Num] rounded to six significant digits. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** written [%d]; emitted only, never parsed *)
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> (t, string) result
val parse_exn : string -> t
(** @raise Parse_error with an offset-bearing message on malformed input. *)

val parse_file : string -> (t, string) result
(** Reads and parses a whole file; IO errors become [Error]. *)

val member : string -> t -> t option
(** Object field lookup; [None] on non-objects and missing keys. *)

val to_float : t -> float option
(** [Num] and [Int] values as a float. *)

val to_string : t -> string option
val to_list : t -> t list option

val write_into : Buffer.t -> t -> unit
(** Append the compact JSON text of the value. *)

val write : t -> string
