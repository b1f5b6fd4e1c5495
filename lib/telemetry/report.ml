(* Trajectory engine: diff two plim-bench result files (v1 or v2) and
   decide whether the newer one is a perf/endurance regression.

   Every tracked metric is a cost — instructions, devices, write
   maximum/stdev/tail, storage spans, wear skew — so "worse" always
   means "larger".  A metric regresses when it grows beyond BOTH the
   relative threshold and the absolute epsilon, which keeps identical
   runs at exactly zero regressions (the runtest self-compare invariant) while
   tolerating genuine noise when a human lowers the threshold to 0.

   Wall-clock phases deliberately do not gate: they vary run to run and
   between machines.  They are reported separately as context. *)

type delta = {
  benchmark : string;
  config : string;
  metric : string;
  baseline : float;
  current : float;
  change_pct : float;   (* (current - baseline) / baseline * 100; nan when
                           from_zero — growth from 0 has no percentage *)
  from_zero : bool;     (* baseline = 0 and current > 0 *)
  regression : bool;
}

type comparison = {
  baseline_path : string;
  current_path : string;
  baseline_schema : string;
  current_schema : string;
  threshold_pct : float;
  deltas : delta list;            (* every compared metric, file order *)
  regressions : delta list;       (* worst (by change_pct) first *)
  improvements : delta list;      (* metrics that shrank beyond threshold *)
  baseline_only : string list;    (* benchmark/config keys that vanished *)
  current_only : string list;     (* keys with no baseline to compare *)
  new_metrics : string list;      (* metrics only the current file has *)
}

(* ------------------------------------------------------------------ *)
(* Row extraction: one row per benchmark x config, metrics flattened to
   (name, value) pairs.  v1 files simply lack the quantile and skew
   fields; only metrics present in BOTH files are compared, which is
   the whole v1 -> v2 migration story. *)

(* A metric name is its JSON path: "writes.max" reads field "max" of
   object "writes". *)
let metrics_of names j =
  List.filter_map
    (fun name ->
      let value =
        List.fold_left
          (fun j field -> Option.bind j (Json.member field))
          (Some j)
          (String.split_on_char '.' name)
      in
      Option.map (fun v -> (name, v)) (Option.bind value Json.to_float))
    names

type row = {
  r_benchmark : string;
  r_config : string;
  r_metrics : (string * float) list;
}

let schema_of j =
  match Option.bind (Json.member "schema" j) Json.to_string with
  | Some s -> s
  | None -> "unknown"

let str k j = Option.value ~default:"?" (Option.bind (Json.member k j) Json.to_string)

let config_metrics =
  [ "instructions"; "rram_cells"; "writes.total"; "writes.max"; "writes.stdev";
    "writes.p50"; "writes.p90"; "writes.p99"; "skew.gini"; "skew.max_mean";
    "storage.total_span"; "storage.max_span"; "dead_writes" ]

(* The pseudo-benchmark sections, folded in after the benchmark rows:
   (section, key of a row as (benchmark, config), gated metrics).  Only
   costs (larger = worse) gate. *)
let sections =
  let labelled section row = (section ^ ":" ^ str "label" row, section) in
  [ (* plim-serve/v1: wall-clock throughput (wall_s, requests_per_sec)
       deliberately stays out — like the phase totals, it varies run to
       run and never gates *)
    ( "serve", labelled "serve",
      [ "latency.p50"; "latency.p99"; "total_cycles"; "groups.p50"; "groups.p99";
        "groups.total"; "fleet.gini"; "fleet.max_mean"; "cache_misses";
        "incorrect"; "rejected" ] );
    (* plim-horizon/v1: lifetimes (ttff, half-life) are better-larger and
       would read as regressions when they improve, so they stay out of
       the comparison and live in the row for humans and dashboards *)
    ( "horizon", labelled "horizon",
      [ "capacity_loss"; "dead_shards"; "skew.gini"; "skew.max_mean";
        "sampled_epochs" ] );
    (* plim-cert/v1: a larger write ceiling, per-cell rate bound or
       leveling overhead is a worse static guarantee; the lifetime
       brackets are better-larger and [-1]-when-unbounded, so they stay
       out *)
    ( "cert", labelled "cert", [ "writes_upper"; "rate_cell_upper"; "overhead" ] );
    (* geometry: the crossbar-geometry backend's area/latency trade-off.
       Area is fixed by the grid choice, which the key already embeds, so
       it is not compared *)
    ( "geometry",
      (fun row ->
        ("geometry:" ^ str "benchmark" row ^ "@" ^ str "grid" row, str "config" row)),
      [ "groups"; "cross_row"; "max_group"; "instructions" ] ) ]

let section_rows j (section, key, metrics) =
  match Option.bind (Json.member section j) Json.to_list with
  | None -> []
  | Some rows ->
    List.map
      (fun row ->
        let r_benchmark, r_config = key row in
        { r_benchmark; r_config; r_metrics = metrics_of metrics row })
      rows

let rows_of j =
  match Option.bind (Json.member "benchmarks" j) Json.to_list with
  | None -> Error "no \"benchmarks\" array (not a plim-bench file?)"
  | Some benchmarks ->
    let rows =
      List.concat_map
        (fun b ->
          let configs =
            Option.value ~default:[]
              (Option.bind (Json.member "configs" b) Json.to_list)
          in
          List.map
            (fun c ->
              { r_benchmark = str "name" b; r_config = str "config" c;
                r_metrics = metrics_of config_metrics c })
            configs)
        benchmarks
    in
    Ok (rows @ List.concat_map (section_rows j) sections)

let key r = r.r_benchmark ^ "/" ^ r.r_config

let shrank d ~threshold_pct ~min_abs =
  d.baseline -. d.current > min_abs
  && d.current < d.baseline *. (1.0 -. (threshold_pct /. 100.0))

let rec keep n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: keep (n - 1) tl

(* ------------------------------------------------------------------ *)

let compare_json ?(threshold_pct = 2.0) ?(min_abs = 1e-9) ~baseline_path ~current_path
    baseline current =
  let ( let* ) = Result.bind in
  let* base_rows = rows_of baseline in
  let* cur_rows = rows_of current in
  let cur_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace cur_tbl (key r) r) cur_rows;
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace base_tbl (key r) r) base_rows;
  let deltas =
    List.concat_map
      (fun br ->
        match Hashtbl.find_opt cur_tbl (key br) with
        | None -> []
        | Some cr ->
          List.filter_map
            (fun (metric, bv) ->
              match List.assoc_opt metric cr.r_metrics with
              | None -> None
              | Some cv ->
                (* A 0 -> x growth has no meaningful percentage: pinning it
                   to a sentinel (the old code used 100.0) made 0 -> 1e-6
                   outrank a genuine 80% regression in the report.  Mark it
                   [from_zero] and rank those deltas separately instead. *)
                let from_zero = bv = 0.0 && cv <> 0.0 in
                let change_pct =
                  if from_zero then Float.nan
                  else if bv = 0.0 then 0.0
                  else (cv -. bv) /. bv *. 100.0
                in
                let grew = cv -. bv > min_abs in
                let regression =
                  grew
                  && (if bv = 0.0 then true
                      else cv > bv *. (1.0 +. (threshold_pct /. 100.0)))
                in
                Some
                  { benchmark = br.r_benchmark;
                    config = br.r_config;
                    metric;
                    baseline = bv;
                    current = cv;
                    change_pct;
                    from_zero;
                    regression })
            br.r_metrics)
      base_rows
  in
  let regressions =
    (* Finite-percentage regressions rank first, worst growth on top;
       from-zero deltas follow as their own block, ordered by absolute
       growth.  They still gate — they just no longer masquerade as a
       "100%" regression above real percentage blow-ups. *)
    List.filter (fun d -> d.regression) deltas
    |> List.sort (fun a b ->
           match (a.from_zero, b.from_zero) with
           | false, false -> compare b.change_pct a.change_pct
           | true, true -> compare b.current a.current
           | false, true -> -1
           | true, false -> 1)
  in
  let improvements =
    List.filter (fun d -> shrank d ~threshold_pct ~min_abs) deltas
    |> List.sort (fun a b -> compare a.change_pct b.change_pct)
  in
  let baseline_only =
    List.filter_map
      (fun r -> if Hashtbl.mem cur_tbl (key r) then None else Some (key r))
      base_rows
  in
  let current_only =
    List.filter_map
      (fun r -> if Hashtbl.mem base_tbl (key r) then None else Some (key r))
      cur_rows
  in
  (* metrics the current file has but the baseline lacks, within matched
     rows: these cannot be compared yet, but silently dropping them would
     make a schema extension look like full coverage — report them as new
     so the next baseline refresh picks them up *)
  let new_metrics =
    List.concat_map
      (fun br ->
        match Hashtbl.find_opt cur_tbl (key br) with
        | None -> []
        | Some cr ->
          List.filter_map
            (fun (metric, _) ->
              if List.mem_assoc metric br.r_metrics then None
              else Some (key br ^ "/" ^ metric))
            cr.r_metrics)
      base_rows
  in
  Ok
    { baseline_path;
      current_path;
      baseline_schema = schema_of baseline;
      current_schema = schema_of current;
      threshold_pct;
      deltas;
      regressions;
      improvements;
      baseline_only;
      current_only;
      new_metrics }

let compare_files ?threshold_pct ?min_abs ~baseline ~current () =
  let ( let* ) = Result.bind in
  let* bj = Json.parse_file baseline in
  let* cj = Json.parse_file current in
  compare_json ?threshold_pct ?min_abs ~baseline_path:baseline ~current_path:current bj
    cj

let has_regressions c = c.regressions <> []

(* ------------------------------------------------------------------ *)

let render ?(verbose = false) c =
  let b = Buffer.create 1024 in
  Printf.bprintf b "perf report: %s (%s) vs %s (%s)\n" c.current_path c.current_schema
    c.baseline_path c.baseline_schema;
  Printf.bprintf b "  %d metrics compared, threshold +%.2f%%\n" (List.length c.deltas)
    c.threshold_pct;
  let row d =
    Printf.bprintf b "  %-12s %-24s %-18s %12.6g -> %-12.6g %8s\n" d.benchmark
      d.config d.metric d.baseline d.current
      (if d.from_zero then "(from 0)" else Printf.sprintf "%+7.2f%%" d.change_pct)
  in
  if c.regressions <> [] then begin
    Printf.bprintf b "REGRESSIONS (%d):\n" (List.length c.regressions);
    List.iter row c.regressions
  end;
  if c.improvements <> [] then begin
    Printf.bprintf b "improvements (%d):\n" (List.length c.improvements);
    List.iter row (if verbose then c.improvements else keep 10 c.improvements);
    if (not verbose) && List.length c.improvements > 10 then
      Printf.bprintf b "  ... %d more (use --verbose)\n"
        (List.length c.improvements - 10)
  end;
  List.iter (Printf.bprintf b "  gone from current: %s\n") c.baseline_only;
  List.iter (Printf.bprintf b "  new in current: %s\n") c.current_only;
  List.iter (Printf.bprintf b "  new metric (no baseline yet): %s\n") c.new_metrics;
  Printf.bprintf b "%d regressions, %d improvements\n" (List.length c.regressions)
    (List.length c.improvements);
  Buffer.contents b

let to_json c =
  let row d =
    Json.Obj
      [ ("benchmark", Str d.benchmark); ("config", Str d.config);
        ("metric", Str d.metric); ("baseline", Num d.baseline); ("current", Num d.current);
        (* a from-zero delta's nan percentage is written null *)
        ("change_pct", Num d.change_pct); ("from_zero", Bool d.from_zero) ]
  in
  let strings ks = Json.Arr (List.map (fun k -> Json.Str k) ks) in
  Json.Obj
    [ ("schema", Str "plim-report/v1"); ("baseline", Str c.baseline_path);
      ("current", Str c.current_path); ("threshold_pct", Num c.threshold_pct);
      ("compared", Int (List.length c.deltas));
      ("regressions", Arr (List.map row c.regressions));
      ("improvements", Arr (List.map row c.improvements));
      ("baseline_only", strings c.baseline_only);
      ("current_only", strings c.current_only);
      ("new_metrics", strings c.new_metrics) ]
