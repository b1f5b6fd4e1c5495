type t = {
  n : int;
  psi : int;
  mutable start : int;
  mutable gap : int;             (* physical index of the spare line *)
  mutable since_move : int;
}

let create ?(psi = 100) n =
  if n <= 0 then invalid_arg "Start_gap.create: need at least one line";
  if psi <= 0 then invalid_arg "Start_gap.create: psi must be positive";
  { n; psi; start = 0; gap = n; since_move = 0 }

let check_address t la =
  if la < 0 || la >= t.n then invalid_arg "Start_gap.physical: address out of range"

let physical t la =
  check_address t la;
  let pa = (la + t.start) mod t.n in
  if pa >= t.gap then pa + 1 else pa

let move_gap ?on_copy t =
  if t.gap = 0 then begin
    (* the gap wraps to the top and the rotation advances *)
    t.gap <- t.n;
    t.start <- (t.start + 1) mod t.n
  end
  else begin
    (* the line just above the gap is copied into the gap: one write *)
    Option.iter (fun f -> f t.gap) on_copy;
    t.gap <- t.gap - 1
  end

let write ?on_copy t la =
  check_address t la;
  t.since_move <- t.since_move + 1;
  if t.since_move >= t.psi then begin
    t.since_move <- 0;
    move_gap ?on_copy t
  end
