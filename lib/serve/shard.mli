(** One persistent crossbar shard of the serve fleet.

    A shard is a {!Plim_fault.Faulty} crossbar plus a
    {!Plim_fault.Remap} spare-line table that both live for the whole
    service lifetime: wear, stuck cells and retired lines accumulate
    across every execution routed here.  Shards start [Active] or
    [Spare]; when a shard's spare-line pool runs dry mid-execution the
    fleet retires it and re-runs the request on an activated spare
    shard ({!Server}). *)

module Program = Plim_isa.Program
module Exec = Plim_fault.Exec

type status = Spare | Active | Retired

type t

val fault_spec : Plim_fault.Fault_model.spec -> id:int -> Plim_fault.Fault_model.spec
(** [fault_spec spec ~id] is shard [id]'s own fault stream: [spec] with
    its seed replaced by [Splitmix.derive spec.seed id].  The one
    per-shard seed rule: the serve fleet, the {!Horizon} wear model and
    {!Plim_certify} all derive shard faults through it. *)

val create :
  ?endurance:int ->
  ?geometry:Plim_geometry.grid ->
  ?spec:Plim_fault.Fault_model.spec ->
  ?status:status ->
  id:int ->
  lines:int ->
  spares:int ->
  unit ->
  t
(** [create ~id ~lines ~spares ()] is a fresh shard of [lines] logical
    lines backed by [lines + spares] physical cells.  The fault spec's
    seed should already be per-shard derived ({!fault_spec});
    [status] defaults to [Active].
    [geometry] declares the crossbar's physical [rows x cols] bound —
    the fleet reports request latency in row-parallel groups when set.
    @raise Invalid_argument on non-positive [lines], negative [spares],
    or a geometry whose area is below [lines]. *)

val id : t -> int
val lines : t -> int

val status : t -> status
val set_status : t -> status -> unit
val status_name : status -> string

val execute :
  verify:bool -> t -> Program.t -> inputs:(string * bool) list ->
  Exec.outcome * Exec.stats
(** One write-verified execution on the shard's persistent crossbar;
    bumps the shard's execution counter and accumulates the stats.
    @raise Invalid_argument when the program needs more than [lines]
    cells. *)

val stats : t -> Exec.stats

val wear_counts : t -> int array
(** Per-physical-cell cumulative write counts (copy), spares included. *)

val total_writes : t -> int
