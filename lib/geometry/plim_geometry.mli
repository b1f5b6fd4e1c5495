(** Crossbar geometry: a bounded [rows x cols] grid, a row-major cell
    placement, and a row-parallel instruction schedule.

    The flat pipeline treats the RRAM array as an unbounded vector of
    cells and executes one RM3 per step.  Real crossbars are bounded 2-D
    arrays whose peripheral drivers can fire several independent RM3s in
    the {e same row} simultaneously (one write driver per column).  This
    module adds that model as a post-pass over a compiled program — the
    instruction stream itself is untouched, so functional behaviour is
    byte-identical to the flat backend by construction:

    - {e placement}: cell [i] lives at row [i / cols], column [i mod cols];
      a program fits iff [num_cells <= rows * cols];
    - {e scheduling}: instructions are partitioned, in dependency order,
      into {e groups}.  A group is a set of mutually independent
      instructions whose touched cells (both [Cell] operands and the
      destination) all lie in one row; an instruction whose cells span
      rows can never share a group and executes alone.  Latency in
      groups is the geometry backend's cost metric, reported alongside
      the flat cycle count.

    Invariants (checked by {!validate}, relied on by the conformance
    matrix): every instruction is scheduled exactly once; group order
    respects every read-after-write, write-after-write and
    write-after-read hazard of the flat stream; multi-member groups are
    confined to a single row; [num_groups <= Program.length]; and with
    [cols = 1] the schedule degenerates to one group per instruction. *)

type grid = private { rows : int; cols : int }

val make_exn : rows:int -> cols:int -> grid
(** @raise Invalid_argument unless both dimensions are at least 1. *)

val of_string : string -> (grid, string) result
(** Parses ["ROWSxCOLS"], e.g. ["8x64"] — the [--geometry] flag format. *)

val to_string : grid -> string
(** ["ROWSxCOLS"]; inverse of {!of_string}. *)

val area : grid -> int
(** [rows * cols]: the device budget of the grid. *)

val grid_for : cols:int -> num_cells:int -> grid
(** The tightest grid of the given width: [cols] columns and
    [ceil (num_cells / cols)] rows (at least one row).
    @raise Invalid_argument if [cols < 1] or [num_cells < 0]. *)

val fits : grid -> num_cells:int -> bool
(** Whether a program footprint respects the area bound. *)

val row_of : grid -> int -> int
(** Row of a cell under row-major placement: [cell / cols]. *)

val col_of : grid -> int -> int
(** Column of a cell under row-major placement: [cell mod cols]. *)

type schedule = private {
  s_grid : grid;
  s_groups : int array array;
      (** each group: ascending instruction indices into the program *)
  s_cross_row : int;
      (** instructions whose own cells span more than one row — forced
          singleton groups *)
}

val schedule : grid -> Plim_isa.Program.t -> (schedule, string) result
(** Greedy row-parallel list scheduling over the program's dependency
    DAG.  Deterministic: ready instructions are considered in ascending
    index order, so the same program and grid always produce the same
    schedule.  [Error] if the program's [num_cells] exceeds the grid
    area. *)

val of_groups : grid -> Plim_isa.Program.t -> int array array -> schedule
(** Wrap an {e arbitrary} grouping claim as a schedule, {b without any
    checking} — the groups are copied verbatim and [s_cross_row] is
    recomputed from the program.  This is the adversarial constructor:
    schedule fuzzers build hazard-violating mutants with it and assert
    {!validate} (and the independent race detector in [Plim_certify])
    reject them.  Never feed an unvalidated [of_groups] schedule to
    grouped execution. *)

val num_groups : schedule -> int
(** The latency of the schedule, in instruction groups. *)

val max_group_size : schedule -> int
(** Widest group (1 for an empty program's degenerate schedule). *)

val validate : Plim_isa.Program.t -> schedule -> (unit, string) result
(** Re-checks every invariant of the module header against the program:
    permutation coverage, hazard ordering, single-row grouping, area.
    Used by [plimc lint --geometry] and the conformance matrix; [Error]
    carries the first violated invariant. *)
