let prefix_sums start =
  for b = 1 to Array.length start - 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done

(* [start.(b)] is bucket [b]'s fill cursor; once every bucket is full it
   holds where bucket [b + 1] begins, so shifting the array one slot up
   restores the offsets (the total at the last index never moves). *)
let scatter start iter =
  let last = Array.length start - 1 in
  let out = Array.make start.(last) 0 in
  iter (fun b v ->
      out.(start.(b)) <- v;
      start.(b) <- start.(b) + 1);
  for b = last - 1 downto 1 do
    start.(b) <- start.(b - 1)
  done;
  start.(0) <- 0;
  out
