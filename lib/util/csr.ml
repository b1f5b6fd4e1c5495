let prefix_sums start =
  for b = 1 to Array.length start - 1 do
    start.(b) <- start.(b) + start.(b - 1)
  done

let scatter start iter =
  let fill = Array.copy start in
  let out = Array.make start.(Array.length start - 1) 0 in
  iter (fun b v ->
      out.(fill.(b)) <- v;
      fill.(b) <- fill.(b) + 1);
  out
