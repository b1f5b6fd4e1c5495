(** A library with planted findings for the export gate's own test. *)

type shape =
  | Circle of float
  | Square of float
  | Triangle of float  (** matched by [area], built by nobody *)

type box = {
  width : float;
  height : float;
  label : string;  (** built by the test, read by nobody *)
}

val area : shape -> float

val scale : ?factor:float -> float -> float
(** [factor] arrives only through {!Report.total}'s [?factor]. *)

val unused : int -> int
(** called by nobody *)
