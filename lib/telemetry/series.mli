(** Bounded time-series storage for campaign telemetry.

    A fixed-capacity decimating sample store: it keeps a bounded sketch
    of the {e whole} sequence.  When full, it drops every second
    retained sample and doubles the keep-stride.  The first sample is
    always retained and the store ends up holding every [stride]-th
    offered sample, so arbitrarily long accelerated-time campaigns
    produce trajectory curves of bounded size.

    Contents are a pure function of the offered sequence (no clock, no
    randomness): series recorded inside [-j N] campaigns are identical
    to their [-j 1] runs. *)

type 'a t

val create : capacity:int -> unit -> 'a t
(** @raise Invalid_argument when [capacity < 2]. *)

val offer : 'a t -> 'a -> unit
(** Submit the next sample; the stride decides whether it is retained. *)

val to_list : 'a t -> 'a list
(** Retained samples, oldest first: at most [capacity] of them. *)

val last : 'a t -> 'a option
(** Most recently retained sample. *)
