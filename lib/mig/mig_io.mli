(** Textual interchange for MIGs.

    Two formats:
    - a line-oriented [.mig] format with a printer and parser
      (round-trippable), and
    - Graphviz DOT export for visual inspection (complemented edges are
      drawn dashed). *)

val to_string : Mig.t -> string
(** Serialise in the [.mig] format:
    {v
    mig
    .input 1 a
    .input 2 b
    .node 4 1 ~2 0
    .output sum ~4
    v}
    Node operands are node ids, [~] marks a complemented edge, and id 0 is
    the constant false. *)

val digest : Mig.t -> string
(** [Plim_util.Fnv.digest_string (to_string g)], computed by hashing the
    text as it is emitted: no text is built.  The serve cache keys and the
    corpus file names are this digest. *)

val of_string : string -> (Mig.t, string) result
(** Parse the [.mig] format.  [Error] on malformed input, always with a
    line number: a missing header, an unrecognised line, a bad id or
    operand, an operand naming an undefined node, an id defined twice, or
    an input name declared twice.  The graph is returned without its
    structural hash ({!Mig.drop_strash}). *)

val to_dot : Mig.t -> string

val read_file : string -> (Mig.t, string) result
(** {!of_string} on the file's contents; [Error] also when the file
    cannot be read or is a directory ({!Plim_util.File.read}). *)
