(* Telemetry layer: histogram laws (quantile brackets), bounded time
   series, wear snapshots, the JSON reader and the trajectory-engine
   regression gate. *)

module Hgram = Plim_telemetry.Histogram
module Series = Plim_telemetry.Series
module Wear = Plim_telemetry.Wear
module Json = Plim_telemetry.Json
module Report = Plim_telemetry.Report
module Stats = Plim_stats.Stats
module Splitmix = Plim_util.Splitmix
module Metrics = Plim_obs.Metrics
module Campaign = Plim_machine.Campaign
module Pipeline = Plim_core.Pipeline
module Suite = Plim_benchgen.Suite
module Fault_model = Plim_fault.Fault_model

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* [to_json] carries count, sum, min, max and every non-empty bucket, so
   equal JSON means equal histograms. *)
let hgram_json h = Json.write (Hgram.to_json h)

let random_array rng len bound = Array.init len (fun _ -> Splitmix.int rng bound)

(* --- histogram basics ------------------------------------------------- *)

let test_hist_basic () =
  let h = Hgram.create () in
  check_int "empty count" 0 (Hgram.count h);
  check_int "empty quantile" 0 (Hgram.quantile h 0.5);
  check_int "empty min" 0 (Hgram.min_value h);
  check_int "empty max" 0 (Hgram.max_value h);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Hgram.mean h);
  List.iter (Hgram.observe h) [ 3; 1; 4; 1; 5 ];
  check_int "count" 5 (Hgram.count h);
  check_int "sum" 14 (Hgram.sum h);
  check_int "min" 1 (Hgram.min_value h);
  check_int "max" 5 (Hgram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 2.8 (Hgram.mean h);
  (* small values live in exact buckets: quantiles are exact *)
  check_int "p50 exact below 32" 3 (Hgram.p50 h);
  check_int "q1.0 = max" 5 (Hgram.quantile h 1.0);
  List.iter (Hgram.observe h) [ 7; 7; 7 ];
  check_int "repeated count" 8 (Hgram.count h);
  check_int "repeated sum" 35 (Hgram.sum h);
  Alcotest.check_raises "negative value" (Invalid_argument "Histogram.observe: negative value")
    (fun () -> Hgram.observe h (-1));
  Hgram.clear h;
  check_int "cleared" 0 (Hgram.count h);
  Alcotest.(check string) "cleared equals fresh" (hgram_json (Hgram.create ()))
    (hgram_json h)

let test_hist_of_array () =
  let rng = Splitmix.create 0x7E1E in
  let xs = random_array rng 500 10_000 in
  let h = Hgram.of_array xs in
  let h' = Hgram.create () in
  Array.iter (fun v -> Hgram.observe h' v) xs;
  Alcotest.(check string) "of_array = fold observe" (hgram_json h') (hgram_json h);
  check_int "count" 500 (Hgram.count h);
  check_int "sum" (Array.fold_left ( + ) 0 xs) (Hgram.sum h);
  check_int "min exact" (Array.fold_left min max_int xs) (Hgram.min_value h);
  check_int "max exact" (Array.fold_left max 0 xs) (Hgram.max_value h)

(* --- quantile brackets vs exact sorted-array quantiles ---------------- *)

let test_hist_quantile_bounds () =
  let rng = Splitmix.create 0x9A17 in
  let qs = [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ] in
  for trial = 0 to 29 do
    let len = 1 + Splitmix.int rng 400 in
    let bound = 1 + (1 lsl (trial mod 20)) in
    let xs = random_array rng len bound in
    let h = Hgram.of_array xs in
    List.iter
      (fun q ->
        let exact = Stats.quantile q xs in
        let est = Hgram.quantile h q in
        let _, high = Hgram.value_bounds exact in
        check_bool
          (Printf.sprintf "q%.2f: exact %d <= est %d (len %d bound %d)" q exact est
             len bound)
          true (exact <= est);
        check_bool
          (Printf.sprintf "q%.2f: est %d <= bucket-high %d" q est high)
          true (est <= high);
        check_bool "est within recorded range" true
          (est >= Hgram.min_value h && est <= Hgram.max_value h))
      qs;
    check_int "q1.0 is exact max" (Array.fold_left max 0 xs) (Hgram.quantile h 1.0)
  done

(* --- series ------------------------------------------------------------ *)

let test_series_decimate () =
  (* offering the sample index makes the retention contract checkable:
     the store must hold exactly 0, stride, 2*stride, ... *)
  List.iter
    (fun n ->
      let s = Series.create ~capacity:8 () in
      for i = 0 to n - 1 do
        Series.offer s i
      done;
      let kept = Series.to_list s in
      check_bool (Printf.sprintf "bounded (%d offers)" n) true (List.length kept <= 8);
      (* the stride is the gap between the first two kept samples *)
      let stride = match kept with _ :: x :: _ -> x | _ -> 1 in
      check_bool "stride is a power of two" true (stride land (stride - 1) = 0);
      if n > 0 then begin
        check_int "first sample always retained" 0 (List.hd kept);
        List.iteri (fun i v -> check_int "stride grid" (i * stride) v) kept
      end;
      Alcotest.(check (option int)) "last"
        (match List.rev kept with [] -> None | x :: _ -> Some x)
        (Series.last s))
    [ 0; 1; 7; 8; 9; 64; 1000; 4097 ];
  Alcotest.check_raises "capacity < 2" (Invalid_argument "Series.create: capacity must be >= 2")
    (fun () -> ignore (Series.create ~capacity:1 () : int Series.t))

(* --- wear snapshots ---------------------------------------------------- *)

let test_wear_skew () =
  let s = Wear.skew_of [| 5; 5; 5; 5 |] in
  Alcotest.(check (float 1e-9)) "level gini" 0.0 s.Wear.gini;
  Alcotest.(check (float 1e-9)) "level max/mean" 1.0 s.Wear.max_mean;
  Alcotest.(check (float 1e-9)) "level stdev" 0.0 s.Wear.stdev;
  check_int "total" 20 s.Wear.total;
  let s = Wear.skew_of [| 0; 0; 0; 4 |] in
  Alcotest.(check (float 1e-9)) "concentrated gini" 0.75 s.Wear.gini;
  Alcotest.(check (float 1e-9)) "concentrated max/mean" 4.0 s.Wear.max_mean;
  check_int "p99 tail" 4 s.Wear.p99;
  let empty = Wear.skew_of [||] in
  check_int "empty cells" 0 empty.Wear.cells;
  Alcotest.(check (float 1e-9)) "empty max/mean" 1.0 empty.Wear.max_mean

let test_wear_heatmap () =
  let counts = Array.init 40 (fun i -> i) in
  let text = Wear.heatmap counts in
  check_bool "has scale legend" true (contains ~affix:"scale:" text);
  check_bool "max in legend" true (contains ~affix:"max=39" text);
  (* 40 cells at width 7, the smallest square that fits = 6 rows + legend *)
  check_int "row count" 7
    (List.length (String.split_on_char '\n' (String.trim text)));
  let j = Json.write (Wear.heatmap_json ~label:"t" counts) in
  match Json.parse j with
  | Error e -> Alcotest.failf "heatmap_json unparsable: %s" e
  | Ok doc ->
    Alcotest.(check (option string)) "label" (Some "t")
      (Option.bind (Json.member "label" doc) Json.to_string);
    (match Option.bind (Json.member "counts" doc) Json.to_list with
    | Some l -> check_int "counts roundtrip" 40 (List.length l)
    | None -> Alcotest.fail "no counts array");
    (match Option.bind (Json.member "skew" doc) (Json.member "gini") with
    | Some _ -> ()
    | None -> Alcotest.fail "no skew.gini")

(* --- JSON reader -------------------------------------------------------- *)

let test_json_parse () =
  let doc = {|{"a": [1, 2.5, -3e2], "s": "x\ny", "t": true, "n": null}|} in
  (match Json.parse doc with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok j ->
    (match Option.bind (Json.member "a" j) Json.to_list with
    | Some [ x; y; z ] ->
      Alcotest.(check (float 1e-9)) "int" 1.0 (Option.get (Json.to_float x));
      Alcotest.(check (float 1e-9)) "frac" 2.5 (Option.get (Json.to_float y));
      Alcotest.(check (float 1e-9)) "exp" (-300.0) (Option.get (Json.to_float z))
    | _ -> Alcotest.fail "array shape");
    Alcotest.(check (option string)) "escapes" (Some "x\ny")
      (Option.bind (Json.member "s" j) Json.to_string);
    check_bool "missing member" true (Json.member "zz" j = None));
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\":}"; "12 34"; "\"unterminated"; "nulll" ]

(* a directory opens on Linux; reading it must be an [Error] naming it *)
let test_json_directory () =
  let dir = Filename.current_dir_name in
  Alcotest.(check (result unit string))
    "directory" (Error (dir ^ ": is a directory"))
    (Result.map ignore (Json.parse_file dir))

let test_json_depth_limit () =
  (* the recursive-descent reader is depth-bounded: adversarially nested
     input gets a clean Error, never a stack overflow *)
  let deep n = String.make n '[' ^ "1" ^ String.make n ']' in
  (match Json.parse (deep 200) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "rejected 200-deep nesting: %s" e);
  (match Json.parse (deep 300) with
  | Ok _ -> Alcotest.fail "accepted 300-deep nesting"
  | Error e ->
    check_bool "error names the depth bound" true (contains ~affix:"deep" e));
  (match Json.parse (deep 100_000) with
  | Ok _ -> Alcotest.fail "accepted pathologically deep nesting"
  | Error _ -> ());
  (* a complete value followed by anything is an error, not a prefix parse *)
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Ok _ -> Alcotest.failf "accepted trailing garbage %S" bad
      | Error _ -> ())
    [ {|{"a":1} x|}; "[1] [2]"; "1 2"; "null null"; {|"s" "t"|} ]

(* --- trajectory engine / regression gate -------------------------------- *)

let bench_doc ~schema ~max_writes ~extra =
  Printf.sprintf
    {|{"schema":"%s","generated_at":0,"benchmarks":[
       {"name":"b1","configs":[
         {"config":"naive","instructions":100,"rram_cells":20,
          "writes":{"min":1,"max":%d,"total":500,"mean":25,"stdev":9.5}%s}]}],
      "phases":[{"name":"translate","calls":1,"total_s":1.0}]}|}
    schema max_writes extra

let v2_extra = {|,"skew":{"gini":0.31,"max_mean":2.4}|}

(* [Report.compare_files] on two documents, each written to a temporary
   file. *)
let compare_docs ?threshold_pct baseline current =
  let file doc =
    let f = Filename.temp_file "report" ".json" in
    Out_channel.with_open_text f (fun oc -> output_string oc doc);
    f
  in
  let baseline = file baseline and current = file current in
  Fun.protect
    ~finally:(fun () -> Sys.remove baseline; Sys.remove current)
    (fun () -> Report.compare_files ?threshold_pct ~baseline ~current ())

let test_report_identical () =
  let doc = bench_doc ~schema:"plim-bench/v2" ~max_writes:40 ~extra:v2_extra in
  match compare_docs doc doc with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "no regressions on identical docs" false (Report.has_regressions c);
    check_int "no improvements either" 0 (List.length c.Report.improvements);
    check_bool "metrics were compared" true (List.length c.Report.deltas >= 5);
    check_bool "summary line" true
      (contains ~affix:"0 regressions" (Report.render c))

let test_report_regression () =
  let base = bench_doc ~schema:"plim-bench/v2" ~max_writes:40 ~extra:v2_extra in
  let cur = bench_doc ~schema:"plim-bench/v2" ~max_writes:55 ~extra:v2_extra in
  match compare_docs base cur with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "regression detected" true (Report.has_regressions c);
    (match c.Report.regressions with
    | [ d ] ->
      Alcotest.(check string) "metric" "writes.max" d.Report.metric;
      Alcotest.(check string) "benchmark" "b1" d.Report.benchmark;
      Alcotest.(check (float 1e-6)) "change pct" 37.5 d.Report.change_pct
    | l -> Alcotest.failf "expected exactly 1 regression, got %d" (List.length l));
    (* the other direction is an improvement, not a regression *)
    (match compare_docs cur base with
    | Ok c' ->
      check_bool "improvement direction never gates" false (Report.has_regressions c');
      check_int "one improvement" 1 (List.length c'.Report.improvements)
    | Error e -> Alcotest.failf "compare failed: %s" e)

let test_report_v1_migration () =
  (* a v1 baseline has no skew/quantile columns: only the shared metrics
     are compared, and their absence is not a regression *)
  let v1 = bench_doc ~schema:"plim-bench/v1" ~max_writes:40 ~extra:"" in
  let v2 = bench_doc ~schema:"plim-bench/v2" ~max_writes:40 ~extra:v2_extra in
  match compare_docs v1 v2 with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "no regressions across schemas" false (Report.has_regressions c);
    check_bool "skew not compared against v1" true
      (List.for_all (fun d -> not (contains ~affix:"skew" d.Report.metric))
         c.Report.deltas);
    Alcotest.(check string) "baseline schema" "plim-bench/v1" c.Report.baseline_schema;
    Alcotest.(check string) "current schema" "plim-bench/v2" c.Report.current_schema

let test_report_threshold () =
  let base = bench_doc ~schema:"plim-bench/v2" ~max_writes:100 ~extra:v2_extra in
  let cur = bench_doc ~schema:"plim-bench/v2" ~max_writes:101 ~extra:v2_extra in
  let compare_at threshold =
    match compare_docs ~threshold_pct:threshold base cur with
    | Ok c -> Report.has_regressions c
    | Error e -> Alcotest.failf "compare failed: %s" e
  in
  check_bool "+1% under default 2% threshold" false (compare_at 2.0);
  check_bool "+1% over 0.5% threshold" true (compare_at 0.5)

let test_report_missing_rows () =
  let base = bench_doc ~schema:"plim-bench/v2" ~max_writes:40 ~extra:v2_extra in
  let empty =
    {|{"schema":"plim-bench/v2","generated_at":0,"benchmarks":[],"phases":[]}|}
  in
  (match compare_docs base empty with
  | Ok c ->
    Alcotest.(check (list string)) "vanished rows" [ "b1/naive" ] c.Report.baseline_only;
    check_bool "vanished rows do not gate" false (Report.has_regressions c)
  | Error e -> Alcotest.failf "compare failed: %s" e);
  match compare_docs "{}" base with
  | Ok _ -> Alcotest.fail "accepted a non-bench document"
  | Error _ -> ()

let test_report_new_metrics () =
  (* a metric present only in the current file within a matched row is
     reported as new — never gated, never silently dropped *)
  let base = bench_doc ~schema:"plim-bench/v2" ~max_writes:40 ~extra:"" in
  let cur = bench_doc ~schema:"plim-bench/v2" ~max_writes:40 ~extra:v2_extra in
  match compare_docs base cur with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "new metrics never gate" false (Report.has_regressions c);
    check_bool "skew/gini listed as new" true
      (List.mem "b1/naive/skew.gini" c.Report.new_metrics);
    check_bool "skew/max_mean listed as new" true
      (List.mem "b1/naive/skew.max_mean" c.Report.new_metrics);
    check_bool "render mentions new metrics" true
      (contains ~affix:"new metric" (Report.render c));
    check_bool "to_json carries new_metrics" true
      (contains ~affix:"new_metrics" (Json.write (Report.to_json c)));
    (* identical docs: nothing is new *)
    (match compare_docs cur cur with
    | Ok c' -> check_int "identical -> no new metrics" 0 (List.length c'.Report.new_metrics)
    | Error e -> Alcotest.failf "compare failed: %s" e)

let serve_doc ~p99 ~misses =
  Printf.sprintf
    {|{"schema":"plim-bench/v2","generated_at":0,"benchmarks":[],"phases":[],
      "serve":[{"schema":"plim-serve/v1","label":"steady","requests":240,
        "cache_misses":%d,"total_cycles":9000,"incorrect":0,"rejected":0,
        "latency":{"p50":24.0,"p90":40.0,"p99":%f,"max":80.0},
        "fleet":{"active":4,"retired":0,"spare":1,"gini":0.05,
                 "max_mean":1.2,"stdev":3.0,"total_writes":5000},
        "wall_s":0.0,"requests_per_sec":0.0}]}|}
    misses p99

let test_report_serve_rows () =
  (* plim-serve/v1 rows fold into the comparison as serve:<label>
     pseudo-benchmarks; their wall-clock fields are never compared *)
  let base = serve_doc ~p99:60.0 ~misses:4 in
  let cur = serve_doc ~p99:90.0 ~misses:4 in
  (match compare_docs base base with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "serve metrics compared" true (List.length c.Report.deltas >= 6);
    check_bool "all rows keyed serve:steady/serve" true
      (List.for_all
         (fun d ->
           d.Report.benchmark = "serve:steady" && d.Report.config = "serve")
         c.Report.deltas);
    check_bool "wall-clock excluded" true
      (List.for_all
         (fun d ->
           d.Report.metric <> "wall_s" && d.Report.metric <> "requests_per_sec")
         c.Report.deltas);
    check_bool "identical serve rows -> zero" false (Report.has_regressions c));
  match compare_docs base cur with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "latency tail growth gates" true (Report.has_regressions c);
    (match c.Report.regressions with
    | [ d ] ->
      Alcotest.(check string) "metric" "latency.p99" d.Report.metric;
      Alcotest.(check string) "benchmark" "serve:steady" d.Report.benchmark
    | l -> Alcotest.failf "expected exactly 1 regression, got %d" (List.length l))

let zero_doc ~instructions ~dead_writes =
  Printf.sprintf
    {|{"schema":"plim-bench/v2","generated_at":0,"benchmarks":[
       {"name":"b1","configs":[
         {"config":"naive","instructions":%d,"rram_cells":20,"dead_writes":%d}]}],
      "phases":[]}|}
    instructions dead_writes

let test_report_from_zero () =
  (* growth from a zero baseline has no meaningful percentage: it must
     still gate, but ranked after every finite-percentage regression and
     rendered/serialized without a percentage sentinel *)
  let base = zero_doc ~instructions:100 ~dead_writes:0 in
  let cur = zero_doc ~instructions:150 ~dead_writes:5 in
  match compare_docs base cur with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "both growths gate" true (Report.has_regressions c);
    (match c.Report.regressions with
    | [ a; b ] ->
      Alcotest.(check string) "finite percentage ranks first" "instructions"
        a.Report.metric;
      Alcotest.(check (float 1e-6)) "finite pct" 50.0 a.Report.change_pct;
      check_bool "finite row not from_zero" false a.Report.from_zero;
      Alcotest.(check string) "zero-baseline growth ranks last" "dead_writes"
        b.Report.metric;
      check_bool "flagged from_zero" true b.Report.from_zero;
      check_bool "no 100% sentinel" true (Float.is_nan b.Report.change_pct)
    | l -> Alcotest.failf "expected 2 regressions, got %d" (List.length l));
    let txt = Report.render c in
    check_bool "render marks zero-baseline growth" true
      (contains ~affix:"from 0" txt);
    let j = Json.write (Report.to_json c) in
    check_bool "JSON uses null, not a sentinel pct" true
      (contains ~affix:{|"change_pct":null|} j);
    check_bool "JSON carries from_zero" true
      (contains ~affix:{|"from_zero":true|} j);
    (match Json.parse j with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "report JSON unparsable: %s" e)

let geometry_doc ~groups =
  Printf.sprintf
    {|{"schema":"plim-bench/v2","generated_at":0,"benchmarks":[],"phases":[],
      "geometry":[{"benchmark":"dec4","config":"endurance-full","grid":"2x16",
        "rows":2,"cols":16,"area":32,"instructions":50,"groups":%d,
        "cross_row":1,"max_group":12}]}|}
    groups

let test_report_geometry_rows () =
  (* geometry trade-off rows fold in as geometry:<benchmark>@<grid>
     pseudo-benchmarks and gate on group latency like any cost *)
  let base = geometry_doc ~groups:18 in
  (match compare_docs base base with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "geometry metrics compared" true (List.length c.Report.deltas >= 4);
    check_bool "rows keyed geometry:dec4@2x16" true
      (List.for_all
         (fun d ->
           d.Report.benchmark = "geometry:dec4@2x16"
           && d.Report.config = "endurance-full")
         c.Report.deltas);
    check_bool "identical -> zero" false (Report.has_regressions c));
  match compare_docs base (geometry_doc ~groups:25) with
  | Error e -> Alcotest.failf "compare failed: %s" e
  | Ok c ->
    check_bool "group-latency growth gates" true (Report.has_regressions c);
    (match c.Report.regressions with
    | [ d ] -> Alcotest.(check string) "metric" "groups" d.Report.metric
    | l -> Alcotest.failf "expected exactly 1 regression, got %d" (List.length l))

(* every pseudo-benchmark section folds through the same reader: a grown
   gated metric is a regression keyed <section>:<label> (geometry:
   <bench>@<grid>), a grown metric the section excludes — wall-clock or
   better-larger lifetimes, or the grid's fixed area — is never compared *)
let test_report_sections_fold () =
  let cases =
    [ ( "serve", "serve:steady", "total_cycles", "wall_s",
        Printf.sprintf {|{"label":"steady","total_cycles":%g,"wall_s":%g}|} );
      ( "horizon", "horizon:none/r0", "dead_shards", "ttff_epochs",
        Printf.sprintf {|{"label":"none/r0","dead_shards":%g,"ttff_epochs":%g}|} );
      ( "cert", "cert:none/r0", "writes_upper", "half_life_lower",
        Printf.sprintf {|{"label":"none/r0","writes_upper":%g,"half_life_lower":%g}|} );
      ( "geometry", "geometry:dec4@2x16", "groups", "area",
        Printf.sprintf
          {|{"benchmark":"dec4","config":"endurance-full","grid":"2x16",
             "groups":%g,"area":%g}|} ) ]
  in
  List.iter
    (fun (section, key, gated, excluded, row) ->
      let compare base cur =
        let doc r =
          Printf.sprintf {|{"schema":"plim-bench/v2","benchmarks":[],"%s":[%s]}|} section r
        in
        match compare_docs (doc base) (doc cur) with
        | Ok c -> c
        | Error e -> Alcotest.failf "%s: compare failed: %s" section e
      in
      let c = compare (row 10.0 10.0) (row 20.0 10.0) in
      (match c.Report.regressions with
      | [ d ] ->
        Alcotest.(check string) (section ^ " key") key d.Report.benchmark;
        Alcotest.(check string) (section ^ " metric") gated d.Report.metric
      | l ->
        Alcotest.failf "%s: expected 1 regression, got %d" section (List.length l));
      let c = compare (row 10.0 10.0) (row 10.0 20.0) in
      check_bool (section ^ ": " ^ excluded ^ " yields no delta") true
        (List.for_all (fun d -> d.Report.metric = gated) c.Report.deltas);
      check_bool (section ^ ": no regression") false (Report.has_regressions c))
    cases

(* the emit side (Plim_util.Jsonx) and the read side (Json) agree on the
   escape language: quoting any byte string roundtrips exactly *)
let prop_jsonx_roundtrip =
  QCheck.Test.make ~count:1000
    ~name:"Json.parse inverts Jsonx.quote on arbitrary byte strings"
    QCheck.string
    (fun s ->
      match Json.parse (Plim_util.Jsonx.quote s) with
      | Ok (Json.Str s') -> s' = s
      | _ -> false)

let prop_jsonx_roundtrip_in_object =
  QCheck.Test.make ~count:500
    ~name:"quoted strings roundtrip as object keys and members"
    QCheck.(pair string string)
    (fun (k, v) ->
      let doc =
        Printf.sprintf "{%s:%s}" (Plim_util.Jsonx.quote k)
          (Plim_util.Jsonx.quote v)
      in
      match Json.parse doc with
      | Ok j -> Option.bind (Json.member k j) Json.to_string = Some v
      | Error _ -> false)

(* the writer and the reader agree: any value tree written by Json.write
   parses back to itself, up to the two documented lossy encodings — an
   Int reads back as a Num, a Num as its %.6g rounding *)
let json_value_gen =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (int_range (-(1 lsl 53)) (1 lsl 53));
        map (fun x -> Json.Num (if Float.is_finite x then x else 0.0)) float;
        map (fun s -> Json.Str s) string ]
  in
  let rec tree depth =
    if depth = 0 then leaf
    else
      frequency
        [ (2, leaf);
          (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4) (pair string (tree (depth - 1)))) ) ]
  in
  tree 4

let rec json_read_back = function
  | Json.Int i -> Json.Num (float_of_int i)
  | Json.Num x -> Json.Num (float_of_string (Printf.sprintf "%.6g" x))
  | Json.Arr l -> Json.Arr (List.map json_read_back l)
  | Json.Obj kvs -> Json.Obj (List.map (fun (k, v) -> (k, json_read_back v)) kvs)
  | v -> v

let prop_json_write_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Json.parse inverts Json.write on value trees"
    (QCheck.make ~print:Json.write json_value_gen)
    (fun v -> Json.parse (Json.write v) = Ok (json_read_back v))

let test_json_write_edges () =
  let check what expected v = Alcotest.(check string) what expected (Json.write v) in
  check "nan is null" "null" (Json.Num Float.nan);
  check "infinity is null" "null" (Json.Num infinity);
  check "-infinity is null" "null" (Json.Num neg_infinity);
  check "empty object" "{}" (Json.Obj []);
  check "empty array" "[]" (Json.Arr []);
  Alcotest.(check (option (float 0.0))) "to_float accepts Int" (Some 3.0)
    (Json.to_float (Json.Int 3));
  check "compact, %d ints, %.6g floats" {|{"a":[1,0.333333,null],"b\"":true}|}
    (Json.Obj
       [ ("a", Json.Arr [ Json.Int 1; Json.Num (1.0 /. 3.0); Json.Null ]);
         ("b\"", Json.Bool true) ])

(* --- metrics registry exposition ---------------------------------------- *)

let test_metrics_histogram () =
  Metrics.reset ();
  let h = Metrics.histogram "test.latency" in
  Metrics.observe h 10;
  Metrics.observe h 20;
  Metrics.observe h 30;
  let count () =
    match List.assoc_opt "test.latency" (Metrics.snapshot ()) with
    | Some (Metrics.Hist hv) -> Hgram.count hv
    | _ -> Alcotest.fail "histogram missing from snapshot"
  in
  check_int "observations recorded" 3 (count ());
  Metrics.reset ();
  check_int "reset clears" 0 (count ())

(* --- campaign wear trajectory ------------------------------------------- *)

let compiled_dec4 () =
  let g = Suite.build_cached (Suite.find "dec4") in
  ((Pipeline.compile Pipeline.endurance_full g).Pipeline.program, g)

let test_campaign_trajectory () =
  let p, _ = compiled_dec4 () in
  let run () =
    Campaign.run_degraded ~seed:0x7EAC ~max_executions:60 ~sample_every:10
      ~endurance:500 ~spares:4 ~verify:true
      ~fault_spec:(Fault_model.make ~transient:1e-3 ~seed:0x11 ())
      p
  in
  let d = run () in
  let traj = d.Campaign.trajectory in
  check_bool "trajectory non-empty" true (List.length traj >= 2);
  let first = List.hd traj in
  check_int "starts at execution 0" 0 first.Campaign.at_execution;
  check_int "starts at write 0" 0 first.Campaign.at_write;
  let final = List.nth traj (List.length traj - 1) in
  check_int "ends at campaign end" d.Campaign.executions final.Campaign.at_execution;
  let rec monotone : Campaign.wear_sample list -> unit = function
    | a :: (b :: _ as tl) ->
      check_bool "execution clock monotone" true
        (a.Campaign.at_execution < b.Campaign.at_execution);
      check_bool "write clock monotone" true (a.Campaign.at_write <= b.Campaign.at_write);
      check_bool "total wear monotone" true
        (a.Campaign.skew.Wear.total <= b.Campaign.skew.Wear.total);
      monotone tl
    | _ -> ()
  in
  monotone traj;
  check_int "final_wear covers the physical array (incl. spares)"
    (Plim_isa.Program.num_cells p + 4)
    (Array.length d.Campaign.final_wear);
  (* the trajectory is a pure function of the campaign: replays are
     byte-identical, which is what keeps -j 1 == -j N *)
  let d' = run () in
  Alcotest.(check string) "replay identical"
    (Json.write (Campaign.trajectory_json traj))
    (Json.write (Campaign.trajectory_json d'.Campaign.trajectory));
  match Json.parse (Json.write (Campaign.trajectory_json traj)) with
  | Ok (Json.Arr l) -> check_int "JSON points" (List.length traj) (List.length l)
  | Ok _ -> Alcotest.fail "trajectory JSON is not an array"
  | Error e -> Alcotest.failf "trajectory JSON unparsable: %s" e

let test_campaign_sampler_validation () =
  let p, _ = compiled_dec4 () in
  Alcotest.check_raises "sample_every must be >= 1"
    (Invalid_argument "Campaign: sample_every must be >= 1") (fun () ->
      ignore (Campaign.run_degraded ~sample_every:0 p))

let () =
  Alcotest.run "telemetry"
    [ ( "histogram",
        [ Alcotest.test_case "basics" `Quick test_hist_basic;
          Alcotest.test_case "of_array" `Quick test_hist_of_array;
          Alcotest.test_case "quantile brackets" `Quick test_hist_quantile_bounds ] );
      ( "series",
        [ Alcotest.test_case "decimate sketch" `Quick test_series_decimate ] );
      ( "wear",
        [ Alcotest.test_case "skew metrics" `Quick test_wear_skew;
          Alcotest.test_case "heatmap" `Quick test_wear_heatmap ] );
      ( "json",
        [ Alcotest.test_case "reader" `Quick test_json_parse;
          Alcotest.test_case "depth bound and trailing garbage" `Quick
            test_json_depth_limit;
          Alcotest.test_case "a directory is refused" `Quick test_json_directory;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip;
          QCheck_alcotest.to_alcotest prop_jsonx_roundtrip_in_object;
          QCheck_alcotest.to_alcotest prop_json_write_roundtrip;
          Alcotest.test_case "writer edge cases" `Quick test_json_write_edges ] );
      ( "report",
        [ Alcotest.test_case "identical -> zero" `Quick test_report_identical;
          Alcotest.test_case "regression detected" `Quick test_report_regression;
          Alcotest.test_case "v1 -> v2 migration" `Quick test_report_v1_migration;
          Alcotest.test_case "threshold knob" `Quick test_report_threshold;
          Alcotest.test_case "missing rows" `Quick test_report_missing_rows;
          Alcotest.test_case "new metrics reported, not dropped" `Quick
            test_report_new_metrics;
          Alcotest.test_case "serve rows fold into the gate" `Quick
            test_report_serve_rows;
          Alcotest.test_case "zero-baseline growth" `Quick test_report_from_zero;
          Alcotest.test_case "geometry rows fold into the gate" `Quick
            test_report_geometry_rows;
          Alcotest.test_case "every section folds" `Quick test_report_sections_fold ] );
      ( "metrics",
        [ Alcotest.test_case "histogram exposition" `Quick test_metrics_histogram ] );
      ( "campaign",
        [ Alcotest.test_case "wear trajectory" `Quick test_campaign_trajectory;
          Alcotest.test_case "sampler validation" `Quick test_campaign_sampler_validation
        ] ) ]
