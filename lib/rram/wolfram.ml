type t = {
  n : int;
  seed : int;
  period : int;
  mutable rekeys : int;
  mutable since : int;
  mutable map : int array;       (* logical -> physical, a permutation of [0, n) *)
}

(* Seeded Fisher–Yates permutation of [0, n).  [Splitmix.int] is
   rejection-sampled, so the permutation is uniform and bias-free for any
   (seed, generation) pair. *)
let permutation ~seed ~generation n =
  let rng = Plim_util.Splitmix.create (Plim_util.Splitmix.derive seed generation) in
  let p = Array.init n (fun i -> i) in
  for i = n - 1 downto 1 do
    let j = Plim_util.Splitmix.int rng (i + 1) in
    let tmp = p.(i) in
    p.(i) <- p.(j);
    p.(j) <- tmp
  done;
  p

let create ?(period = 50_000) ~seed n =
  if n <= 0 then invalid_arg "Wolfram.create: need at least one line";
  if period <= 0 then invalid_arg "Wolfram.create: period must be positive";
  { n; seed; period; rekeys = 0; since = 0;
    map = permutation ~seed ~generation:0 n }

let check_address t la =
  if la < 0 || la >= t.n then invalid_arg "Wolfram.physical: address out of range"

let physical t la =
  check_address t la;
  t.map.(la)

let rekey ?on_migrate t =
  t.rekeys <- t.rekeys + 1;
  let next = permutation ~seed:t.seed ~generation:t.rekeys t.n in
  for la = 0 to t.n - 1 do
    (* a moved line's data is copied to its new physical home: one write *)
    if next.(la) <> t.map.(la) then Option.iter (fun f -> f next.(la)) on_migrate
  done;
  t.map <- next

let write ?on_migrate t la =
  check_address t la;
  t.since <- t.since + 1;
  if t.since >= t.period then begin
    t.since <- 0;
    rekey ?on_migrate t
  end

let rekeys t = t.rekeys
