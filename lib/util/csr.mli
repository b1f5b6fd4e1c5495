(** Compressed-row tables: items grouped by bucket in one flat int array,
    bucket [b] occupying [start.(b) .. start.(b + 1) - 1].  Built in two
    passes — count each bucket's size, then [prefix_sums] and [scatter]. *)

val prefix_sums : int array -> unit
(** In place: given bucket [b]'s size at [start.(b + 1)] (and 0 at
    [start.(0)]), leaves [start.(b)] where bucket [b] begins, and the
    total at the last index. *)

val scatter : int array -> ((int -> int -> unit) -> unit) -> int array
(** [scatter start iter] calls [iter add], where each [add b v] appends
    [v] to bucket [b], and returns the flat items: inside each bucket in
    [add] order.  [start] holds the offsets from {!prefix_sums}; [iter]
    must add exactly the counted number of items to every bucket.
    [start] itself serves as the fill cursors and is shifted back before
    the return, so it ends as {!prefix_sums} left it (not if [iter]
    raises); the result is the only allocation. *)
