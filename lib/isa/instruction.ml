type operand =
  | Const of bool
  | Cell of int

type t = {
  a : operand;
  b : operand;
  z : int;
}

let rm3 ~a ~b ~z =
  if z < 0 then invalid_arg "Instruction.rm3: negative destination";
  (match (a, b) with
  | Cell i, _ when i < 0 -> invalid_arg "Instruction.rm3: negative operand cell"
  | _, Cell i when i < 0 -> invalid_arg "Instruction.rm3: negative operand cell"
  | (Const _ | Cell _), (Const _ | Cell _) -> ());
  { a; b; z }

(* RM3(1,0,z) = <1,1,z> = 1 and RM3(0,1,z) = <0,0,z> = 0, both independent
   of the previous cell state. *)
let set_const v z =
  if v then rm3 ~a:(Const true) ~b:(Const false) ~z
  else rm3 ~a:(Const false) ~b:(Const true) ~z

let semantics ~a ~b ~z =
  let nb = not b in
  (a && nb) || (a && z) || (nb && z)

let pp_operand ppf = function
  | Const false -> Format.pp_print_string ppf "0"
  | Const true -> Format.pp_print_string ppf "1"
  | Cell i -> Format.fprintf ppf "%%%d" i

let pp ppf t =
  Format.fprintf ppf "RM3 %a, %a, %%%d" pp_operand t.a pp_operand t.b t.z

let to_string t = Format.asprintf "%a" pp t
