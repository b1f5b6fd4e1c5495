type 'a t = {
  mutable data : 'a array;
  mutable len : int;
  dummy : 'a;
}

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length t = t.len

let check t i =
  if i < 0 || i >= t.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (length %d)" i t.len)

let get t i =
  check t i;
  t.data.(i)

let set t i x =
  check t i;
  t.data.(i) <- x

let grow t =
  let capacity = Array.length t.data in
  let data = Array.make (2 * capacity) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t x =
  if t.len = Array.length t.data then grow t;
  let i = t.len in
  t.data.(i) <- x;
  t.len <- i + 1;
  i

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done

let fold_left f acc t =
  let acc = ref acc in
  for i = 0 to t.len - 1 do
    acc := f !acc t.data.(i)
  done;
  !acc

let to_array t = Array.sub t.data 0 t.len
