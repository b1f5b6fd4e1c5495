(** Static dataflow analysis and lint checks over compiled RM3 programs.

    Where {!Plim_core.Verify} executes a program and {!Plim_check} fuzzes
    the whole compiler, this module reasons about the instruction stream
    without running it: it builds per-cell def-use chains and liveness
    intervals (first def of a value to its last use) and derives

    - per-cell {e static write bounds} — provably equal to what any
      execution performs, cross-validated three ways in
      {!Plim_core.Verify.check_random} against
      {!Plim_isa.Program.static_write_counts} and the crossbar-observed
      counts;
    - a catalogue of {e diagnostics} over allocation hygiene and output
      integrity (below);
    - the {e storage-duration} report: how long each device stays blocked
      holding a live value — the quantity the paper's Algorithm 3 (node
      selection by smallest fanout level) minimizes, here measurable per
      program instead of inferred from the schedule.

    {2 Read/write model}

    [RM3 a, b, z] writes [z] and reads every [Cell] operand; it also reads
    the old value of [z] — [z <- <a, !b, z>] — {e except} when both
    operands are constants with [a <> b]: [RM3 1,0,z] and [RM3 0,1,z] are
    the constant loads ({!Plim_isa.Instruction.set_const}), independent of
    the previous state.  ([RM3 0,0,z] and [RM3 1,1,z] are the identity and
    do read [z].)  Primary inputs are defined by the external load before
    instruction 0; primary outputs are live until after the last
    instruction.

    {2 Diagnostic catalogue}

    - {b use-before-def} (error): an instruction reads a cell that is
      neither a PI nor written earlier.  The machine would read the HRS
      reset value 0, so the semantics are defined — but no correct
      compilation ever does this.  Also raised for a PO cell that no
      instruction or PI load ever defines.
    - {b dead write} (error): a destination value is overwritten or the
      program ends before anything reads it (and it is not a live-out PO
      value) — pure wasted endurance.
    - {b PO clobber} (error): an output cell is written {e after} the def
      holding its final computed value, i.e. the overwritten def was never
      read; the clobbering instruction is the one reported.
    - {b RRAM leak} (error without a cap, info with one): a cell went
      dead, yet an instruction more than 8 slots later first-defines a
      brand-new cell.  The uncapped allocator only opens fresh devices
      when the free pool is empty, so this proves the allocator held a
      dead device past its last use.  The 8-slot grace window covers one
      RM3 instruction group: the translator requests a group's
      temporaries after a child's last read but releases children only
      at group end, so a fresh open within one group of a death is
      normal scheduling.  Under the maximum write count strategy retired
      devices legitimately stay unused, hence the downgrade to info.
    - {b cap exceeded} (error, only with [max_writes]): a cell takes more
      static writes than the Table III cap [W]; the first offending
      instruction is reported.
    - {b unused cell} (info): a cell inside [num_cells] that is never a
      PI and never written — address-space gaps, e.g. devices skipped by
      fault-aware allocation. *)

module Program = Plim_isa.Program

type severity = Error | Warning | Info

type kind =
  | Use_before_def
  | Dead_write
  | Po_clobber
  | Rram_leak
  | Cap_exceeded
  | Unused_cell

type diagnostic = {
  severity : severity;
  kind : kind;
  instr : int option;  (** instruction index; [None] for program-level findings *)
  cell : int;
  message : string;
}

(** One value held by a cell: defined at [def_at], read at [uses]. *)
type def = {
  cell : int;
  def_at : int;      (** instruction index; [-1] for the external PI load *)
  uses : int list;   (** ascending instruction indices reading this value *)
  live_out : bool;   (** the def a PO cell carries past the last instruction *)
}

type storage = {
  total_span : int;      (** sum of liveness spans, in instruction slots *)
  max_span : int;
  mean_span : float;     (** average span per def; 0.0 when there are no defs *)
}

(** The def-use chains behind {!analyze}, in flat int arrays.  Defs are
    numbered [0 .. def_count - 1] in def order: PI loads first, then per
    instruction any placeholder and the instruction's own def.  A
    placeholder is the def installed after a use-before-def read, so
    later reads of that cell chain to it; it is not in {!defs}. *)
type chains = private {
  def_count : int;
  def_cell : int array;          (** per def: the cell it defines *)
  def_instr : int array;         (** per def: [def_at], [-1] for a PI load or a placeholder *)
  def_live_out : Bytes.t;        (** per def: a nonzero byte when carried out by a PO *)
  def_placeholder : Bytes.t;     (** per def: a nonzero byte for a placeholder *)
  use_start : int array;
      (** def [d]'s uses are [use_instr.(use_start.(d))] up to
          [use_instr.(use_start.(d + 1) - 1)], ascending *)
  use_instr : int array;
  chain_start : int array;
      (** cell [c]'s defs are [chain.(chain_start.(c))] up to
          [chain.(chain_start.(c + 1) - 1)], in def order *)
  chain : int array;
  has_use_before_def : bool;     (** whether {!analyze} reports a use-before-def *)
}

val chains : Program.t -> chains
(** The def-use IR alone, without the checkers or storage report of
    {!analyze}: what a consumer that walks the chains needs.  Arrays may
    be longer than the counts they are indexed by. *)

type analysis = {
  diagnostics : diagnostic list;  (** sorted by instruction index *)
  chains : chains;                (** the def-use IR the checkers ran on *)
  storage : storage;
  write_counts : int array;       (** per-cell static bound, from the IR *)
}

val analyze : ?max_writes:int -> Program.t -> analysis
(** Build the def-use IR and run every checker.  [max_writes] enables the
    cap checker and marks the leak checker cap-aware. *)

val defs : analysis -> def list
(** Every def of the analysed program in def order (PI loads first, then
    each instruction's def), each with its ascending uses; placeholders
    are left out.  Built from [chains] on each call, one record and one
    [uses] list per def, so a caller that only walks the defs should read
    the chains instead. *)

val write_counts : Program.t -> int array
(** Per-cell write bounds: the instruction defs per cell, counted from the
    first of the two walks that build {!chains} (uses are not counted and
    neither CSR layout is built).  Always equals
    {!Plim_isa.Program.static_write_counts}; computed through an
    independent path so the equality is a real cross-check. *)

val errors : analysis -> diagnostic list
(** The diagnostics with [severity = Error]. *)

val diagnostic_to_string : diagnostic -> string

val storage_json : storage -> Plim_telemetry.Json.t
(** The [{total_span, max_span, mean_span}] block of lint and bench rows. *)

val to_json : ?source:string -> Program.t -> analysis -> Plim_telemetry.Json.t
(** One self-contained JSON object (schema [plim-lint/v1]): program shape,
    the full diagnostic list, storage-duration report and the write-bound
    summary.  Stable field order; documented in EXPERIMENTS.md. *)
