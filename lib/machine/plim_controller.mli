(** The PLiM controller: a wrapper FSM around the RRAM array that fetches
    RM3 instructions and executes them using the array's read/write
    peripheral circuitry (DATE'16; paper Section III-A2).

    When the control signal is off the array behaves as a plain RAM; when
    on, the controller steps a program counter through the instruction
    stream, reads operands A and B (from constants or cells), and performs
    the RM3 during the write cycle of the destination cell.

    The model charges one cycle per operand read from memory and one cycle
    for the destination read-modify-write, matching the
    fetch/decode/execute description of the original PLiM paper. *)

module Crossbar = Plim_rram.Crossbar
module Program = Plim_isa.Program

type run_stats = {
  instructions : int;   (** instructions executed *)
  cycles : int;         (** memory-access cycles consumed *)
}

type trace_entry = {
  pc : int;        (** index of the executed instruction *)
  b_value : bool;  (** operand B as read *)
  z_after : bool;  (** destination state after the RM3 *)
}

val static_cycles : Program.t -> int
(** The memory-access cycles {!run} charges for one execution — one per
    [Cell] operand read plus one per destination read-modify-write — as a
    pure function of the instruction stream.  This is the deterministic
    service-cost model behind the serve layer's latency histograms:
    [static_cycles p] equals the [cycles] field {!run} reports. *)

val run :
  ?on_step:(trace_entry -> unit) ->
  Program.t ->
  inputs:bool array ->
  (string * bool) list * Crossbar.t * run_stats
(** [run p ~inputs] allocates a crossbar of [Program.num_cells p] cells,
    loads the primary inputs (uncounted initialisation writes), turns the
    controller on, executes the whole instruction stream and reads back
    the outputs.  [inputs.(i)] is loaded into the cell of
    [p.pi_cells.(i)]: the order of [Mig.input_names] of the compiled
    graph.

    @raise Invalid_argument if [inputs] does not hold one value per
    primary input. *)

val static_groups :
  geometry:Plim_geometry.grid -> Program.t -> (int, string) result
(** Latency of one execution under the geometry backend, in row-parallel
    instruction groups — a pure function of the program and grid.
    Always [<= Program.length p]; equal to it when [cols = 1].  [Error]
    if the program does not fit the grid ({!Plim_geometry.schedule}). *)

val run_grouped :
  geometry:Plim_geometry.grid ->
  Program.t ->
  inputs:bool array ->
  ((string * bool) list * Crossbar.t * run_stats, string) result
(** Execute the program through its row-parallel schedule
    ({!Plim_geometry.schedule}): each group reads all member operands
    before any member's RM3 fires, modelling simultaneous write drivers
    in one crossbar row.  Group members are mutually hazard-free by
    construction, so outputs (and per-cell wear) are identical to
    {!run}, and so are the stats: every member's operand reads are
    counted, so [cycles] equals {!static_cycles}.  The latency in groups
    is {!static_groups}.  [Error] if the program does not fit the grid.

    @raise Invalid_argument if [inputs] does not hold one value per
    primary input, as {!run}. *)
