(** Profiling spans around compiler and machine phases.

    Disabled by default: {!span} then reduces to calling its argument.
    When enabled, each completed span records its name, start time,
    duration, and nesting depth; the collection exports as Chrome
    [trace_event] JSON (open in [chrome://tracing] or [ui.perfetto.dev])
    or aggregates into a per-phase table. *)

type span = {
  name : string;
  start : float;     (** {!Clock.now} at entry *)
  duration : float;  (** seconds *)
  depth : int;       (** 0 = toplevel; children have depth parent+1 *)
}

val enable : unit -> unit
val disable : unit -> unit

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], recording a span when profiling is enabled.
    The span is recorded (and the nesting depth restored) even when [f]
    raises. *)

val spans : unit -> span list
(** Completed spans in completion order (inner spans precede the spans
    enclosing them). *)

val reset : unit -> unit
(** Drop recorded spans; does not change enablement. *)

val totals : unit -> (string * (int * float)) list
(** Per-name [(count, total seconds)], sorted by name so reports are
    byte-deterministic (durations vary run to run; names do not).
    Nested occurrences of a name each count. *)

val to_chrome_json : unit -> string
(** The recorded spans as a Chrome [trace_event] document: complete
    ("ph":"X") events with microsecond timestamps, single process and
    thread. *)

val pp_totals : Format.formatter -> (string * (int * float)) list -> unit
