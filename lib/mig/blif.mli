(** BLIF (Berkeley Logic Interchange Format) frontend and backend.

    The EPFL benchmark suite — the paper's workload — is distributed in
    BLIF/AIGER form; this module lets real netlists flow into the PLiM
    compiler.  Reading covers the combinational subset: [.model],
    [.inputs], [.outputs], [.names] with SOP cubes ([0], [1], [-]
    don't-cares), single-output-cover semantics, and line continuations
    with [\\].  Each cube becomes an AND of literals and the cover an OR
    of cubes — exactly the AND-inverter shape the rewriting engine
    expects from a frontend.

    Writing emits one [.names] per majority node (8-row cover), plus
    buffers/inverters for outputs. *)

val of_string : string -> (Mig.t, string) result
(** Parse a combinational BLIF netlist.  [Error] on malformed input,
    always with a line number: an unrecognised or unsupported line
    ([.latch], [.subckt], [.gate]), a cube whose arity or characters do
    not match its [.names], a cube output other than [0]/[1], an input
    declared twice, an undriven signal (at the line that references it),
    a combinational cycle (at the [.names] of a signal on it) or a dangling
    line continuation.  The graph is returned without its structural
    hash ({!Mig.drop_strash}). *)

val to_string : Mig.t -> string

val read_file : string -> (Mig.t, string) result
(** {!of_string} on the file's contents; [Error] also when the file
    cannot be read or is a directory ({!Plim_util.File.read}). *)
