(** A fault-injecting wrapper around {!Plim_rram.Crossbar}.

    Intercepts [read]/[write]/[rm3]/[load] and applies a
    {!Fault_model.spec}:

    - {b stuck cells} (injected SA0/SA1, or worn-out cells whose
      endurance budget ran out) read their stuck value; writes to them
      are silently absorbed — exactly what the array's peripheral
      circuitry observes, and why write-verify is needed to detect them;
    - {b transient failures} let the write pulse through (the cell still
      wears) but leave the old state, with a probability growing in the
      cell's write count;
    - {b endurance exhaustion} of the underlying crossbar is converted
      from a {!Plim_rram.Crossbar.Cell_failed} crash into a stuck-at
      fault at the cell's last value, so campaigns degrade instead of
      dying.

    With {!Fault_model.none} and no explicit faults the wrapper forwards
    every operation verbatim: behaviour, write counts and resulting state
    are identical to the bare crossbar. *)

type t

val create :
  ?spec:Fault_model.spec ->
  ?faults:(int * Fault_model.kind) list ->
  Plim_rram.Crossbar.t ->
  t
(** [create ?spec ?faults xbar] wraps [xbar].  Permanent faults are the
    union of the explicit [faults] list and the cells sampled from [spec]
    over the crossbar's size; [spec] also supplies the transient
    parameters.
    @raise Invalid_argument if a fault index is out of range. *)

val base : t -> Plim_rram.Crossbar.t
(** The wrapped crossbar (wear statistics live there). *)

val size : t -> int

val read : t -> int -> bool
(** Stuck-aware read: a stuck cell returns its stuck value. *)

val write : t -> int -> bool -> unit
(** Never raises: writes to stuck cells are absorbed, endurance
    exhaustion converts the cell into a stuck-at fault. *)

val rm3 : t -> p:bool -> q:bool -> int -> unit

val load : t -> int -> bool -> unit

val set_observer : t -> (cell:int -> writes:int -> unit) option -> unit
(** Install a wear observer on the wrapped crossbar (see
    {!Plim_rram.Crossbar.set_observer}).  Fires on counted physical
    writes only — absorbed writes to stuck cells never wear the device
    and never reach the observer. *)

val wear_counts : t -> int array
(** Per-cell cumulative write counts of the wrapped crossbar (a copy) —
    the raw material for wear heatmaps and skew metrics. *)

val injected : t -> int
(** Permanently faulty cells present at creation. *)

val worn_out : t -> int
(** Cells that became stuck through endurance exhaustion after creation. *)

val transient_failures : t -> int
(** Write pulses that failed to switch the state (cell wear was still
    charged). *)

val capacity : t -> float
(** Surviving capacity: fraction of cells not permanently stuck,
    in [0, 1]. *)
