(** Growable arrays with amortised O(1) push, used throughout the MIG and
    compiler data structures where node counts are not known in advance. *)

type 'a t

val create : dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector.  [dummy] fills unused capacity
    and is never observable through the public API. *)

val length : 'a t -> int

val get : 'a t -> int -> 'a
(** @raise Invalid_argument if the index is out of bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** [push t x] appends [x] and returns its index. *)

val clear : 'a t -> unit

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_array : 'a t -> 'a array
