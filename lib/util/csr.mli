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

(** {2 Packed form}

    The same tables with every offset and item a signed 32-bit word in an
    unscanned [Bytes.t]: entry [i] is the native-endian [int32] at byte
    [4 * i], so a table of [k] entries is [4 * k] bytes, half the words of
    an int array, and the GC never scans it.  Offsets, items and the
    total must lie in [\[-2{^31}, 2{^31})]; a caller bounds its counts
    before it builds.  Readers decode entries in place with their own
    [%caml_bytes_get32] external, as [Plim_geometry] does. *)

val prefix_sums32 : Bytes.t -> unit
(** {!prefix_sums} on a packed offset table. *)

val scatter32 : Bytes.t -> ((int -> int -> unit) -> unit) -> Bytes.t
(** {!scatter} on a packed offset table: same contract, and the packed
    items are the only allocation. *)
