(** Structured trace events with pluggable sinks.

    Instrumented code emits named events with typed arguments; where they
    go is a process-global choice.  The default {!Null} sink makes
    emission free apart from one branch — hot call sites additionally
    guard argument construction behind {!enabled} so an uninstrumented
    run pays nothing measurable.

    Sinks:
    - {!Null}: drop everything (default);
    - [Memory q]: append to a queue, for tests and in-process analysis;
    - [Jsonl oc]: one JSON object per line on an output channel. *)

type arg = Int of int | Bool of bool | String of string

type event = {
  ts : float;                    (** {!Clock.now} at emission *)
  name : string;                 (** dotted event name, e.g. ["alloc.release"] *)
  args : (string * arg) list;
}

type sink =
  | Null
  | Memory of event Queue.t
  | Jsonl of out_channel

val enabled : unit -> bool
(** [false] iff the current sink is {!Null}.  Guard argument construction
    with this at hot call sites. *)

val emit : ?args:(string * arg) list -> string -> unit
(** Emit an event to the current sink (a no-op under {!Null}). *)

val with_memory : (unit -> 'a) -> 'a * event list
(** Run with a fresh [Memory] sink installed; restores the previous sink
    (also on exception) and returns the captured events in order. *)

val with_jsonl : string -> (unit -> 'a) -> 'a
(** [with_jsonl path f] runs [f] with a [Jsonl] sink writing to [path];
    closes the file and restores the previous sink afterwards. *)
