(* Crossbar wear snapshots: skew metrics and heatmap renderings of a
   per-cell write-count grid.  Everything here is a pure function of the
   counts array, so snapshots taken inside parallel campaigns stay
   deterministic. *)

module Stats = Plim_stats.Stats

type skew = {
  cells : int;
  total : int;
  max_writes : int;
  mean : float;
  stdev : float;       (* the paper's write-stdev, as a tracked metric *)
  gini : float;
  max_mean : float;    (* lifetime tail: max wear over mean wear *)
  p99 : int;
}

let skew_of counts =
  let s = Stats.summarize counts in
  { cells = s.Stats.count;
    total = s.Stats.total;
    max_writes = s.Stats.max;
    mean = s.Stats.mean;
    stdev = s.Stats.stdev;
    gini = Stats.gini counts;
    max_mean = Stats.max_mean_ratio s;
    p99 = s.Stats.p99 }

let pp_skew ppf s =
  Format.fprintf ppf
    "cells=%d total=%d max=%d mean=%.2f stdev=%.2f p99=%d gini=%.4f max/mean=%.2f"
    s.cells s.total s.max_writes s.mean s.stdev s.p99 s.gini s.max_mean

let skew_json s =
  Json.Obj
    [ ("cells", Int s.cells); ("total", Int s.total); ("max", Int s.max_writes);
      ("mean", Num s.mean); ("stdev", Num s.stdev); ("p99", Int s.p99);
      ("gini", Num s.gini); ("max_mean", Num s.max_mean) ]

(* ten intensity levels: blank = untouched, '@' = the most-worn cell *)
let shades = " .:-=+*#%@"

let shade_of ~max_writes c =
  if c <= 0 then shades.[0]
  else if max_writes <= 0 then shades.[0]
  else shades.[1 + (c * (String.length shades - 2) / max_writes)]

(* the smallest square that fits, capped at 64 *)
let width_of n =
  let rec isqrt i = if i * i >= n then i else isqrt (i + 1) in
  min 64 (isqrt 1)

let heatmap counts =
  let n = Array.length counts in
  let width = width_of n in
  let s = skew_of counts in
  let b = Buffer.create (n + (n / width * 8) + 128) in
  let rows = (n + width - 1) / width in
  for r = 0 to rows - 1 do
    Buffer.add_string b (Printf.sprintf "  %4d |" (r * width));
    for c = r * width to min ((r + 1) * width) n - 1 do
      Buffer.add_char b (shade_of ~max_writes:s.max_writes counts.(c))
    done;
    Buffer.add_string b "|\n"
  done;
  Buffer.add_string b
    (Printf.sprintf "  scale: '%c'=0 .. '%c'=max=%d  (%s)\n" shades.[0]
       shades.[String.length shades - 1]
       s.max_writes
       (Format.asprintf "%a" pp_skew s));
  Buffer.contents b

let heatmap_json ~label counts =
  let width = width_of (Array.length counts) in
  Json.Obj
    [ ("label", Str label); ("width", Int width); ("skew", skew_json (skew_of counts));
      ("counts", Arr (Array.to_list (Array.map (fun c -> Json.Int c) counts))) ]
