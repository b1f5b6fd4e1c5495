type shape = Circle of float | Square of float | Triangle of float
type box = { width : float; height : float; label : string }

let area = function
  | Circle r -> 3.0 *. r *. r
  | Square s -> s *. s
  | Triangle s -> s *. s /. 2.0

let scale ?(factor = 1.0) x = factor *. x
let unused x = x
