(** Fault-tolerant execution of compiled PLiM programs.

    Runs a {!Plim_isa.Program} on a {!Faulty} crossbar through a {!Remap}
    table, optionally with a {b write-verify} policy: after every
    destructive operation (initialisation load or RM3) the destination is
    read back and compared against the intended value.  A mismatch is
    retried in place (recovering transient switching failures by
    rewriting the intended value), at most 2 times; a mismatch that
    survives both retries is a detected permanent fault — the line is
    retired through the remapper and the value replayed on the spare
    (re-verified, since spares can be faulty too).  So a line stuck
    opposite to the value written to it costs exactly 2 retries, then 1
    remap.

    Every logical line of the program is first cleared to HRS — the
    power-on state compiled programs assume — which doubles as a scrub
    pass: under write-verify it flushes out stuck-at-LRS cells before
    they can corrupt a result.

    With [verify] off and a fault-free wrapper the execution is
    bit-identical to {!Plim_machine.Plim_controller.run}: same outputs,
    same per-cell write counts. *)

module Program = Plim_isa.Program

type stats = {
  verify_reads : int;      (** read-backs performed by the policy *)
  detections : int;        (** permanent faults detected (retire decisions) *)
  remaps : int;            (** successful remaps (= detections unless the pool ran dry) *)
  retries : int;           (** in-place rewrite attempts *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type outcome =
  | Completed of (string * bool) list
      (** primary outputs, in [po_cells] declaration order *)
  | Out_of_spares of int
      (** a permanent fault on this logical cell was detected but the
          spare pool is exhausted; the execution was abandoned *)

val run :
  ?verify:bool ->
  Faulty.t ->
  Remap.t ->
  Program.t ->
  inputs:(string * bool) list ->
  outcome * stats
(** [run fx rm p ~inputs] executes [p]; [Remap.lines rm] must cover at
    least [Program.num_cells p] logical lines (a larger table is a
    persistent shard serving programs of varying footprint — only the
    program's own lines are scrubbed and addressed) and
    [Remap.num_physical rm] must not exceed the crossbar size.  [verify]
    defaults to [false].  The
    returned stats cover the run up to and including an [Out_of_spares]
    abandonment.

    @raise Invalid_argument on a geometry or input-binding mismatch. *)
