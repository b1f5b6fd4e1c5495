val total : ?factor:float -> Shapes.box list -> float
(** Only the test calls it, and passes [factor]. *)
