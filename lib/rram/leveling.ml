type t = No_leveling | Start_gap | Wolfram_remap | Start_gap_wolfram

let all = [ No_leveling; Start_gap; Wolfram_remap; Start_gap_wolfram ]

let name = function
  | No_leveling -> "none"
  | Start_gap -> "start_gap"
  | Wolfram_remap -> "wolfram_remap"
  | Start_gap_wolfram -> "start_gap+wolfram"

let of_string = function
  | "none" -> Ok No_leveling
  | "start_gap" -> Ok Start_gap
  | "wolfram_remap" | "wolfram" -> Ok Wolfram_remap
  | "start_gap+wolfram" | "both" -> Ok Start_gap_wolfram
  | s ->
    Error
      (Printf.sprintf
         "unknown endurance strategy %S (expected none|start_gap|wolfram_remap|start_gap+wolfram)"
         s)

let rotates = function
  | Start_gap | Start_gap_wolfram -> true
  | No_leveling | Wolfram_remap -> false

let remaps = function
  | Wolfram_remap | Start_gap_wolfram -> true
  | No_leveling | Start_gap -> false

let lines t n = if rotates t then n + 1 else n

(* Classic Start-Gap rotates over a contiguous physical range: the gap
   copy would march straight into a retired line, so only a programmable
   remap underneath makes wear-time retirement possible. *)
let retires_worn_lines t = t <> Start_gap

let validate ~psi ~period =
  if psi <= 0 then invalid_arg "Leveling: psi must be positive";
  if period <= 0 then invalid_arg "Leveling: re-key period must be positive"

(* The composed form is evaluated for single-layer strategies too: the
   rounding of ((1 + 1/psi) * 1) - 1 is part of every pinned row. *)
let overhead t ~psi ~period ~lines =
  validate ~psi ~period;
  let sg = if rotates t then 1.0 /. float_of_int psi else 0.0 in
  let wf = if remaps t then float_of_int lines /. float_of_int period else 0.0 in
  ((1.0 +. sg) *. (1.0 +. wf)) -. 1.0

let leveled_rate ~overhead ~cells ~total =
  if cells <= 0 then invalid_arg "Leveling.leveled_rate: cells must be positive";
  if overhead < 0.0 then invalid_arg "Leveling.leveled_rate: negative overhead";
  total *. (1.0 +. overhead) /. float_of_int cells

let line_rates t ~overhead ~cells delta =
  match t with
  | No_leveling ->
    Array.init cells (fun l ->
        if l < Array.length delta then float_of_int delta.(l) else 0.0)
  | Start_gap | Wolfram_remap | Start_gap_wolfram ->
    let total = Array.fold_left (fun acc d -> acc +. float_of_int d) 0.0 delta in
    Array.make cells (leveled_rate ~overhead ~cells ~total)

let cell_rate_bound t ~overhead ~cells ~total ~hottest =
  match t with
  | No_leveling -> hottest
  | Start_gap | Wolfram_remap | Start_gap_wolfram ->
    leveled_rate ~overhead ~cells ~total

(* --- execution ----------------------------------------------------------- *)

type stack = {
  np : int;  (* physical lines *)
  sg : Start_gap.t option;
  wf : Wolfram.t option;
}

let stack ?psi ?period ?(seed = 0x901F) t n =
  { np = lines t n;
    sg = (if rotates t then Some (Start_gap.create ?psi n) else None);
    wf = (if remaps t then Some (Wolfram.create ?period ~seed n) else None) }

let num_physical s = s.np

let rotate s a = match s.sg with Some g -> Start_gap.physical g a | None -> a

let physical s la =
  rotate s (match s.wf with Some w -> Wolfram.physical w la | None -> la)

(* The write lands through the current composed map; then the gap may
   move and the permutation may re-key, each copy charged where it lands. *)
let write s ~on_copy la =
  Option.iter
    (fun g ->
      let a = match s.wf with Some w -> Wolfram.physical w la | None -> la in
      Start_gap.write ~on_copy g a)
    s.sg;
  Option.iter
    (fun w -> Wolfram.write ~on_migrate:(fun dst -> on_copy (rotate s dst)) w la)
    s.wf

let replay ?psi ?period t ~executions per_exec_writes =
  let n = Array.length per_exec_writes in
  let s = stack ?psi ?period t n in
  let counts = Array.make (num_physical s) 0 in
  let charge p = counts.(p) <- counts.(p) + 1 in
  let remaining = Array.make n 0 in
  for _ = 1 to executions do
    Array.blit per_exec_writes 0 remaining 0 n;
    let live = ref true in
    while !live do
      live := false;
      for la = 0 to n - 1 do
        if remaining.(la) > 0 then begin
          remaining.(la) <- remaining.(la) - 1;
          charge (physical s la);
          write s ~on_copy:charge la;
          live := true
        end
      done
    done
  done;
  counts
