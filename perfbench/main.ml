(* The repository benchmark: four workloads over the public library API,
   each run in its own process.  See perfbench/README.md for the workload
   rationale, the metric definitions and the layer -> end-to-end mapping.

   Usage:
     main.exe --workload NAME --seconds S [--seed N] [--trace 0|1]

   Every run sets up [setups] times (set-up time is reported as the
   median), then repeats identical timed passes until [--seconds] have
   elapsed, at least [min_passes] of them.  Each pass checks its own
   outputs and reports deterministic counts that must repeat exactly from
   pass to pass.  wall_s is the best untraced pass; each operation's
   latency is its best over the untraced passes.  With [--trace 1]
   untraced and traced passes alternate; the per-layer numbers come from
   the traced ones and the difference between the best of each is the
   tracing overhead.  The last line of standard output is one JSON
   object. *)

module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Geometry = Plim_geometry
module Race = Plim_certify.Race
module Mig = Plim_mig.Mig
module Stats = Plim_stats.Stats
module Splitmix = Plim_util.Splitmix
module Server = Plim_serve.Server
module Workload = Plim_serve.Workload
module Horizon = Plim_serve.Horizon
module Profile = Plim_obs.Profile

let now = Unix.gettimeofday

(* CPU seconds of the whole process, every domain included. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let median = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank quantile, the convention of Stats.quantile. *)
let quantile q = function
  | [] -> 0.0
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let sum = List.fold_left ( +. ) 0.0

(* ------------------------------------------------------------------ *)
(* Workload interface *)

(* What one timed pass reports.  [counts] are compiled or simulated
   statistics: a pure function of the seed, so they must repeat exactly in
   every pass.  [extras] are per-layer values read from the library's own
   counters (server summary, horizon results). *)
type pass = {
  samples : float list;        (* per-operation latencies, seconds *)
  units : float;               (* work done: MIG nodes, requests or cells *)
  counts : (string * float) list;
  attempted : int;
  failures : string list;
  rows : (string * (string * float) list) list;  (* per-circuit rows *)
  extras : (string * float) list;
}

type workload =
  | W : {
      name : string;
      setups : int;            (* set-up repetitions; the median is reported *)
      unit_name : string;      (* what [units] counts *)
      op_name : string;        (* what one latency sample times *)
      setup : unit -> 'c * float;  (* context and suite-build seconds *)
      prepare : 'c -> 'p;          (* untimed per-pass preparation *)
      pass : 'p -> pass;
      teardown : 'c -> unit;
    }
      -> workload

let specs_of names = List.map Suite.find names

(* Every problem one checked operation finds goes into a single failure
   message, so the length of [failures] counts failed operations. *)
let record_failure failures label = function
  | [] -> ()
  | problems -> failures := (label ^ ": " ^ String.concat "; " problems) :: !failures

(* Fresh builds (not Suite.build_cached), so each set-up repetition does
   the real work. *)
let build_specs specs =
  let t0 = now () in
  let graphs =
    List.map (fun s -> (s, Span.with_ "suite.build" (fun () -> s.Suite.build ()))) specs
  in
  (graphs, now () -. t0)

(* The EPFL-scale subset: every circuit of Suite.all except the four
   largest arithmetic ones (div, log2, multiplier, voter), which would push
   one pass past the run budget.  It keeps mem_ctrl and three arithmetic
   circuits of 40k+ nodes (sin, sqrt, square). *)
let epfl_subset =
  [ "adder"; "bar"; "max"; "sin"; "sqrt"; "square"; "cavlc"; "ctrl"; "dec";
    "i2c"; "int2float"; "mem_ctrl"; "priority"; "router" ]

(* ------------------------------------------------------------------ *)
(* compile-epfl: the plimc compile --verify flow per circuit *)

let compile_epfl ~seed =
  let pass graphs =
    let failures = ref [] in
    let samples = ref [] and rows = ref [] in
    let units = ref 0.0 and instrs = ref 0 and rrams = ref 0 and stdevs = ref [] in
    let nodes_out = ref 0 and vectors = ref 0 in
    List.iteri
      (fun i ((spec : Suite.spec), g) ->
        let name = spec.name in
        let t0 = now () in
        Span.with_ "circuit" (fun () ->
            let tr = now () in
            let r = Span.with_ "recipe" (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g) in
            let tb = now () in
            let res =
              Span.with_ "backend" (fun () ->
                  Pipeline.compile_rewritten Pipeline.endurance_full r)
            in
            let p = res.Pipeline.program in
            let ta = now () in
            let a = Span.with_ "analyze" (fun () -> Plim_analyze.analyze p) in
            let tv = now () in
            let v =
              Span.with_ "verify" (fun () ->
                  Verify.check_random ~trials:8 ~seed:(Splitmix.derive seed i) g p)
            in
            let te = now () in
            vectors := !vectors + 8;
            record_failure failures (name ^ "/endurance-full")
              ((match Plim_analyze.errors a with
               | [] -> []
               | d :: _ -> [ "analyze: " ^ Plim_analyze.diagnostic_to_string d ])
              @ match v with Ok () -> [] | Error e -> [ "verify: " ^ e ]);
            let n_in = Mig.size g and n_out = Mig.size r in
            let ni = Program.length p and nr = Program.num_cells p in
            let sd = res.Pipeline.write_summary.Stats.stdev in
            units := !units +. float_of_int n_in;
            nodes_out := !nodes_out + n_out;
            instrs := !instrs + ni;
            rrams := !rrams + nr;
            stdevs := sd :: !stdevs;
            let ms a b = (b -. a) *. 1e3 in
            rows :=
              ( name,
                [ ("nodes", float_of_int n_in); ("rw_nodes", float_of_int n_out);
                  ("instrs", float_of_int ni); ("rrams", float_of_int nr);
                  ("stdev", sd); ("recipe_ms", ms tr tb); ("backend_ms", ms tb ta);
                  ("analyze_ms", ms ta tv); ("verify_ms", ms tv te);
                  ("total_ms", ms tr te) ] )
              :: !rows);
        samples := (now () -. t0) :: !samples)
      graphs;
    let n = List.length graphs in
    { samples = !samples;
      units = !units;
      counts =
        [ ("rm3_instructions", float_of_int !instrs);
          ("rram_devices", float_of_int !rrams);
          ("write_stdev", sum !stdevs /. float_of_int n);
          ("rewritten_nodes", float_of_int !nodes_out) ];
      attempted = n;
      failures = List.rev !failures;
      rows = List.rev !rows;
      extras =
        [ ("recipe.nodes_in", !units); ("recipe.nodes_out", float_of_int !nodes_out);
          ("backend.instrs_out", float_of_int !instrs);
          ("verify.vectors", float_of_int !vectors) ] }
  in
  W { name = "compile-epfl"; setups = 9; unit_name = "nodes";
      op_name = "circuit flow";
      setup = (fun () -> build_specs (specs_of epfl_subset));
      prepare = Fun.id; pass; teardown = ignore }

(* ------------------------------------------------------------------ *)
(* design-sweep: six configs per pre-rewritten graph, plus geometry *)

let sweep_configs =
  let f = Pipeline.endurance_full in
  [ Pipeline.endurance_rewrite; f ]
  @ List.map (fun w -> Pipeline.with_cap w f) [ 10; 20; 50; 100 ]

let sweep_cols = [ 1; 4; 16; 64 ]

let design_sweep () =
  let setup () =
    let graphs, build_s = build_specs (specs_of epfl_subset) in
    let rewritten =
      List.map
        (fun ((s : Suite.spec), g) ->
          (s.name, Span.with_ "recipe" (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g)))
        graphs
    in
    (rewritten, build_s)
  in
  let pass rewritten =
    let failures = ref [] in
    let problems = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    let checked label f =
      problems := [];
      let v = f () in
      record_failure failures label (List.rev !problems);
      v
    in
    let samples = ref [] and rows = ref [] in
    let units = ref 0.0 and instrs = ref 0 and rrams = ref 0 in
    let stdevs = ref [] and groups64 = ref 0 and attempted = ref 0 in
    List.iter
      (fun (name, r) ->
        let size = Mig.size r in
        let circuit_groups = ref 0 and circuit_instrs = ref 0 in
        let t0 = now () in
        Span.with_ "circuit" (fun () ->
            List.iter
              (fun cfg ->
                let cname = Pipeline.config_name cfg in
                incr attempted;
                let p =
                  checked (name ^ "/" ^ cname) @@ fun () ->
                  Span.with_ "config" (fun () ->
                      let res = Span.with_ "backend" (fun () -> Pipeline.compile_rewritten cfg r) in
                      let p = res.Pipeline.program in
                      let a =
                        Span.with_ "analyze" (fun () ->
                            Plim_analyze.analyze ?max_writes:cfg.Pipeline.max_write p)
                      in
                      (match Plim_analyze.errors a with
                      | [] -> ()
                      | d :: _ -> fail "analyze: %s" (Plim_analyze.diagnostic_to_string d));
                      if Span.with_ "write_counts" (fun () -> Plim_analyze.write_counts p)
                         <> Program.static_write_counts p
                      then fail "Plim_analyze.write_counts <> Program.static_write_counts";
                      units := !units +. float_of_int size;
                      instrs := !instrs + Program.length p;
                      circuit_instrs := !circuit_instrs + Program.length p;
                      rrams := !rrams + Program.num_cells p;
                      if cfg = Pipeline.endurance_full then
                        stdevs := res.Pipeline.write_summary.Stats.stdev :: !stdevs;
                      p)
                in
                if cfg = Pipeline.endurance_full then
                  List.iter
                    (fun cols ->
                      incr attempted;
                      let n_instr = Program.length p in
                      let grid = Geometry.grid_for ~cols ~num_cells:(Program.num_cells p) in
                      let label = Printf.sprintf "%s/%s@%s" name cname (Geometry.to_string grid) in
                      (checked label @@ fun () ->
                       match Span.with_ "geometry.schedule" (fun () -> Geometry.schedule grid p) with
                      | Error e -> fail "schedule: %s" e
                      | Ok s ->
                        (match Span.with_ "geometry.validate" (fun () -> Geometry.validate p s) with
                        | Ok () -> ()
                        | Error e -> fail "validate: %s" e);
                        (match Span.with_ "race" (fun () -> Race.check_schedule p s) with
                        | Ok () -> ()
                        | Error e -> fail "race: %s" e);
                        let g = Geometry.num_groups s in
                        if g > n_instr || (cols = 1 && g <> n_instr) then
                          fail "%d groups for %d instructions" g n_instr;
                        if cols = 64 then begin
                          groups64 := !groups64 + g;
                          circuit_groups := g
                        end))
                    sweep_cols)
              sweep_configs);
        samples := (now () -. t0) :: !samples;
        rows :=
          ( name,
            [ ("rw_nodes", float_of_int size); ("instrs_all", float_of_int !circuit_instrs);
              ("groups64", float_of_int !circuit_groups) ] )
          :: !rows)
      rewritten;
    { samples = !samples;
      units = !units;
      counts =
        [ ("rm3_instructions", float_of_int !instrs);
          ("rram_devices", float_of_int !rrams);
          ("write_stdev", sum !stdevs /. float_of_int (List.length !stdevs));
          ("sched_groups", float_of_int !groups64) ];
      attempted = !attempted;
      failures = List.rev !failures;
      rows = List.rev !rows;
      extras = [ ("backend.instrs_out", float_of_int !instrs) ] }
  in
  W { name = "design-sweep"; setups = 3; unit_name = "nodes";
      op_name = "one circuit's sweep";
      setup; prepare = Fun.id; pass; teardown = ignore }

(* ------------------------------------------------------------------ *)
(* serve-steady: closed loop, one client, 32-request batches *)

let batch_size = 32
let batches_per_pass = 1000

let fresh_programs specs =
  let graphs, build_s = build_specs specs in
  ( List.map
      (fun ((s : Suite.spec), g) ->
        { Workload.label = s.name; graph = g; digest = Plim_serve.Cache.digest_of g })
      graphs,
    build_s )

let rec chunks n = function
  | [] -> []
  | l ->
    let rec take k acc = function
      | x :: rest when k > 0 -> take (k - 1) (x :: acc) rest
      | rest -> (List.rev acc, rest)
    in
    let c, rest = take n [] l in
    c :: chunks n rest

type serve_ctx = {
  warmup : Workload.request list;
  batches : Workload.request list list;
}

let serve_steady ~seed =
  let cfg =
    { Server.default_config with
      Server.fault_spec =
        Plim_fault.Fault_model.make ~transient:1e-4 ~seed:(Splitmix.derive seed 2) ();
      seed = Splitmix.derive seed 3 }
  in
  let warmed_server warmup =
    let server = Server.create cfg in
    ignore (Span.with_ "server.run" (fun () -> Server.run server warmup));
    server
  in
  let setup () =
    let programs, build_s = fresh_programs Suite.small_suite in
    let mix =
      { Workload.programs; zipf = 1.1; hot_fraction = 0.8; hot_pool = 4; compile_ratio = 0.05 }
    in
    let stream =
      Workload.generate ~seed:(Splitmix.derive seed 1)
        ~requests:(batch_size * batches_per_pass) mix
    in
    let n = List.length programs in
    let warmup = List.filteri (fun i _ -> i < n) stream in
    let timed = List.filteri (fun i _ -> i >= n) stream in
    ignore (warmed_server warmup);
    ({ warmup; batches = chunks batch_size timed }, build_s)
  in
  let prepare ctx =
    (* The mix programs, compiled outside the timed pass: digest -> RM3
       instruction count for rm3_instructions, and the device and write
       counts of every program. *)
    let instrs_of = Hashtbl.create 16 in
    let compiled =
      List.filter_map
        (function
          | Workload.Compile { graph; _ } ->
            let res = Pipeline.compile cfg.Server.pipeline graph in
            let p = res.Pipeline.program in
            Hashtbl.replace instrs_of (Plim_serve.Cache.digest_of graph) (Program.length p);
            Some (float_of_int (Program.num_cells p), res.Pipeline.write_summary.Stats.stdev)
          | Workload.Execute _ -> None)
        ctx.warmup
    in
    let mix_counts =
      [ ("rram_devices", sum (List.map fst compiled));
        ("write_stdev", sum (List.map snd compiled) /. float_of_int (List.length compiled)) ]
    in
    (ctx, instrs_of, mix_counts, warmed_server ctx.warmup)
  in
  let pass (ctx, instrs_of, mix_counts, server) =
    let failures = ref [] in
    let samples = ref [] and cycles = ref [] in
    let requests = ref 0 and executed_instrs = ref 0 in
    List.iteri
      (fun b batch ->
        let t0 = now () in
        let responses =
          Span.with_ ~batch:b "batch" (fun () ->
              Span.with_ "server.run" (fun () -> Server.run server batch))
        in
        samples := (now () -. t0) :: !samples;
        requests := !requests + List.length batch;
        if List.length responses <> List.length batch then
          failures :=
            Printf.sprintf "batch %d: %d responses for %d requests" b
              (List.length responses) (List.length batch)
            :: !failures;
        List.iteri
          (fun j -> function
            | Server.Compiled _ -> ()
            | Server.Executed { digest; correct; cycles = c; _ } ->
              cycles := c :: !cycles;
              executed_instrs :=
                !executed_instrs + Option.value (Hashtbl.find_opt instrs_of digest) ~default:0;
              if correct <> Some true then
                failures :=
                  Printf.sprintf "batch %d request %d: incorrect outputs from program %s" b j
                    digest
                  :: !failures
            | Server.Rejected { digest; reason } ->
              failures :=
                Printf.sprintf "batch %d request %d: program %s rejected: %s" b j digest reason
                :: !failures)
          responses)
      ctx.batches;
    let s = Server.summary server in
    let e = s.Server.exec_stats in
    let lookups = s.Server.cache_hits + s.Server.cache_misses in
    { samples = !samples;
      units = float_of_int !requests;
      counts =
        ("rm3_instructions", float_of_int !executed_instrs) :: mix_counts
        @ [ ("sim_cycles.p99", quantile 0.99 (List.map float_of_int !cycles));
          ("sim_cycles.total", float_of_int s.Server.total_cycles);
          ("executes", float_of_int s.Server.executes);
          ("re_runs", float_of_int s.Server.re_runs) ];
      attempted = !requests;
      failures = List.rev !failures;
      rows = [];
      extras =
        [ ("server.executes", float_of_int s.Server.executes);
          ("server.re_runs", float_of_int s.Server.re_runs);
          ("cache.hit_ratio",
           if lookups = 0 then 0.0
           else float_of_int s.Server.cache_hits /. float_of_int lookups);
          ("exec.verify_reads", float_of_int e.Plim_fault.Exec.verify_reads);
          ("exec.retries", float_of_int e.Plim_fault.Exec.retries);
          ("exec.remaps", float_of_int e.Plim_fault.Exec.remaps) ] }
  in
  W { name = "serve-steady"; setups = 15; unit_name = "requests";
      op_name = "Server.run batch";
      setup; prepare; pass; teardown = ignore }

(* ------------------------------------------------------------------ *)
(* lifetime-grid: the bench horizon campaign, one Plim_par.map of cells *)

let grid_rates = [ 0.0; 0.005; 0.02 ]

type grid_ctx = {
  pool : Plim_par.t;
  cells : (string * Horizon.config) list;
  mix_stdev : float;  (* mean write STDEV of the mix programs *)
}

let lifetime_grid ~seed =
  let jobs = min 2 (Plim_par.default_jobs ()) in
  let fault_seed = Splitmix.derive seed 5 in
  let setup () =
    let base = Horizon.default_config in
    let programs, build_s =
      fresh_programs (List.filteri (fun i _ -> i < 5) Suite.small_suite)
    in
    let cfg =
      { base with
        Horizon.mix = { base.Horizon.mix with Workload.programs };
        server = { base.Horizon.server with Server.seed = Splitmix.derive seed 4 } }
    in
    let exec_only =
      { cfg with Horizon.mix = { cfg.Horizon.mix with Workload.compile_ratio = 0.0 } }
    in
    let cells =
      List.concat_map
        (fun (suffix, c) ->
          List.concat_map
            (fun strategy ->
              List.map
                (fun rate ->
                  let c =
                    { c with
                      Horizon.strategy;
                      fault_spec = Horizon.spec_of_rate ~seed:fault_seed rate }
                  in
                  (Printf.sprintf "%s/r%g%s" (Horizon.strategy_name strategy) rate suffix, c))
                grid_rates)
            Horizon.all_strategies)
        [ ("", cfg); ("/exec", exec_only) ]
    in
    let mix_stdev =
      sum
        (List.map
           (fun (p : Workload.program) ->
             (Pipeline.compile cfg.Horizon.server.Server.pipeline p.graph)
               .Pipeline.write_summary.Stats.stdev)
           programs)
      /. float_of_int (List.length programs)
    in
    ({ pool = Plim_par.create ~jobs (); cells; mix_stdev }, build_s)
  in
  let pass ctx =
    let one (label, c) =
      let t0 = now () in
      Span.with_ "cell" (fun () ->
          let r = Span.with_ "horizon" (fun () -> Horizon.run c) in
          let verdict =
            Span.with_ "certify" (fun () ->
                let cert = Plim_certify.certify c in
                (cert, Plim_certify.check_result cert r))
          in
          (label, r, verdict, now () -. t0))
    in
    let t0 = now () in
    let results = Span.with_ "grid.map" (fun () -> Plim_par.map ctx.pool ~f:one ctx.cells) in
    let wall = now () -. t0 in
    let failures =
      List.filter_map
        (fun (label, _, (_, v), _) ->
          match v with Ok () -> None | Error e -> Some (Printf.sprintf "cell %s: %s" label e))
        results
    in
    let sumf f = sum (List.map f results) in
    let busy = sumf (fun (_, _, _, t) -> t) in
    let sampled = sumf (fun (_, r, _, _) -> float_of_int r.Horizon.r_sampled_epochs) in
    let cert_sum f =
      sumf (fun (_, _, (cert, _), _) ->
          sum (List.map (fun p -> float_of_int (f p)) cert.Plim_certify.c_programs))
    in
    { samples = List.map (fun (_, _, _, t) -> t) results;
      units = float_of_int (List.length results);
      counts =
        [ ("rm3_instructions", cert_sum (fun p -> p.Plim_certify.p_instructions));
          ("rram_devices", cert_sum (fun p -> p.Plim_certify.p_cells));
          ("write_stdev", ctx.mix_stdev);
          ("max_cell_writes", cert_sum (fun p -> p.Plim_certify.p_wmax));
          ("sampled_epochs", sampled);
          ("modelled_writes", sumf (fun (_, r, _, _) -> r.Horizon.r_total_writes));
          ("dead_shards", sumf (fun (_, r, _, _) -> float_of_int r.Horizon.r_dead_shards)) ];
      attempted = List.length results;
      failures;
      rows = [];
      extras =
        [ ("horizon.sampled_epochs", sampled);
          ("par.utilisation", busy /. (float_of_int (Plim_par.jobs ctx.pool) *. wall)) ] }
  in
  W { name = "lifetime-grid"; setups = 25; unit_name = "cells";
      op_name = "grid cell (horizon + certify)";
      setup; prepare = Fun.id; pass; teardown = (fun c -> Plim_par.shutdown c.pool) }

(* ------------------------------------------------------------------ *)
(* Driver *)

type measured = {
  p : pass;
  wall : float;
  cpu : float;
  traced : bool;
  minor_words : float;
  major : int;
  index : int;
}

let layer_unit name =
  if String.ends_with ~suffix:"_s" name then "s"
  else if name = "cache.hit_ratio" || name = "par.utilisation" then "ratio"
  else if name = "gc.minor_words_per_unit" then "words"
  else "count"

(* Spans that only group other calls: their self time is benchmark glue. *)
let glue_spans = [ "pass"; "circuit"; "config"; "batch"; "cell" ]

(* Best-of and the count-repeat check need at least two passes; a traced
   run needs one untraced and one traced. *)
let min_passes = 2

(* Where traced runs write their Chrome trace. *)
let out_dir = Filename.concat "perfbench" "out"

let json_metric (name, value, unit) =
  Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}" (Plim_util.Jsonx.quote name) value
    (Plim_util.Jsonx.quote unit)

let run (W w) ~seed ~seconds ~trace =
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%d\n%!" w.name seed seconds
    (if trace then 1 else 0);
  if trace then Span.enable ();
  (* set-up, repeated; the last context is kept *)
  let setup_times = ref [] and build_times = ref [] and ctx = ref None in
  for _ = 1 to w.setups do
    Option.iter w.teardown !ctx;
    let t0 = now () in
    let c, build_s = w.setup () in
    setup_times := (now () -. t0) :: !setup_times;
    build_times := build_s :: !build_times;
    ctx := Some c
  done;
  Span.disable ();
  let ctx = Option.get !ctx in
  let run_pass ~traced index =
    let prep = w.prepare ctx in
    Span.set_pass index;
    if traced then begin
      Span.enable ();
      Profile.enable ()
    end;
    let g0 = Gc.quick_stat () in
    let c0 = cpu_now () in
    let t0 = now () in
    let p = Span.with_ "pass" (fun () -> w.pass prep) in
    let wall = now () -. t0 in
    let cpu = cpu_now () -. c0 in
    let g1 = Gc.quick_stat () in
    Span.disable ();
    Profile.disable ();
    { p; wall; cpu; index; traced;
      minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
      major = g1.Gc.major_collections - g0.Gc.major_collections }
  in
  (* With tracing, untraced and traced passes alternate, so both see the
     same load from outside the process. *)
  let all =
    let t0 = now () in
    let rec loop i acc =
      if List.length acc >= min_passes && now () -. t0 >= seconds then List.rev acc
      else loop (i + 1) (run_pass ~traced:(trace && i mod 2 = 1) i :: acc)
    in
    loop 0 []
  in
  let traced, untraced = List.partition (fun m -> m.traced) all in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  w.teardown ctx;
  (* correctness: output failures, and counts that must repeat exactly *)
  let first = List.hd all in
  let mismatches =
    List.concat_map
      (fun m ->
        List.filter_map
          (fun (k, v) ->
            match List.assoc_opt k m.p.counts with
            | Some v' when v' = v -> None
            | v' ->
              Some
                (Printf.sprintf "count %s differs across passes: pass %d %.17g, pass %d %s" k
                   first.index v m.index
                   (match v' with Some x -> Printf.sprintf "%.17g" x | None -> "missing")))
          first.p.counts)
      all
  in
  let failures =
    List.concat_map (fun m -> List.map (Printf.sprintf "pass %d: %s" m.index) m.p.failures) all
  in
  let attempted = List.fold_left (fun a m -> a + m.p.attempted) 0 all in
  let failed =
    min attempted
      (List.fold_left (fun a m -> a + List.length m.p.failures) (List.length mismatches) all)
  in
  (* Set-up time is the median of the repetitions.  Every pass does the same
     operations in the same order, and load from outside the process only
     ever slows work down, so wall_s is the best untraced pass and each
     operation's latency is its best over the untraced passes. *)
  let setup_s = median !setup_times in
  let walls l = List.map (fun m -> m.wall) l in
  let best f l = List.fold_left (fun a m -> Float.min a (f m)) infinity l in
  let wall_s = best (fun m -> m.wall) untraced in
  let op_best =
    List.fold_left
      (fun acc m -> List.map2 Float.min acc m.p.samples)
      (List.hd untraced).p.samples (List.tl untraced)
  in
  let op_ms q = quantile q op_best *. 1e3 in
  let count k = Option.value (List.assoc_opt k first.p.counts) ~default:0.0 in
  (* ---- human-readable report ---- *)
  Printf.printf "set-up: %d repetitions, median %.4f s (suite build %.4f s)\n" w.setups setup_s
    (median !build_times);
  Printf.printf "timed passes: %d untraced%s, pass wall %s s, pass cpu %s s\n"
    (List.length untraced)
    (if trace then Printf.sprintf " + %d traced" (List.length traced) else "")
    (String.concat " " (List.map (Printf.sprintf "%.4f") (walls all)))
    (String.concat " " (List.map (fun m -> Printf.sprintf "%.4f" m.cpu) all));
  (match first.p.rows with
  | [] -> ()
  | (_, cols) :: _ as rows ->
    Printf.printf "\nper circuit (best of %d passes)\n%-12s" (List.length all) "circuit";
    List.iter (fun (c, _) -> Printf.printf " %12s" c) cols;
    print_newline ();
    List.iter
      (fun (name, cols) ->
        Printf.printf "%-12s" name;
        List.iter
          (fun (c, _) ->
            let v =
              List.fold_left
                (fun a m ->
                  match Option.bind (List.assoc_opt name m.p.rows) (List.assoc_opt c) with
                  | Some v -> Float.min a v
                  | None -> a)
                infinity all
            in
            Printf.printf " %12.4g" v)
          cols;
        print_newline ())
      rows);
  Printf.printf
    "\nend-to-end (wall: best of %d passes; op = %s: %d per pass, each at its best)\n"
    (List.length untraced) w.op_name (List.length first.p.samples);
  let line name value unit = Printf.printf "  %-20s %16.6g %s\n" name value unit in
  line "setup_s" setup_s "s";
  line "wall_s" wall_s "s";
  line "wall_s.median" (median (walls untraced)) "s";
  line (w.unit_name ^ "_per_s") (first.p.units /. wall_s) (w.unit_name ^ "/s");
  if w.name = "serve-steady" then begin
    line "batch_ms.p50" (op_ms 0.5) "ms";
    line "batch_ms.p99" (op_ms 0.99) "ms"
  end;
  line "op_ms.p50" (op_ms 0.5) "ms";
  line "op_ms.p99" (op_ms 0.99) "ms";
  line "peak_heap_mb" peak_heap_mb "MB";
  line "error_rate"
    (float_of_int failed /. float_of_int (max 1 attempted))
    "failed/attempted";
  List.iter
    (fun (k, v) -> line k v (if k = "write_stdev" then "writes" else "count"))
    first.p.counts;
  (* ---- per-layer numbers from the traced half ---- *)
  let layer_metrics =
    if not trace then []
    else begin
      let n = float_of_int (List.length traced) in
      let idx = List.map (fun m -> m.index) traced in
      let spans = Span.spans () in
      let layers = Span.layers ~passes:idx spans in
      let prof = Profile.totals () in
      let span_busy name =
        match List.assoc_opt name layers with Some l -> l.Span.busy /. n | None -> 0.0
      in
      (* recipe, backend and analyze are timed by the library's own Profile
         spans, which also cover the compiles inside Server and Horizon *)
      let lib_layer name =
        match List.assoc_opt name prof with
        | Some (c, t) -> (t /. n, float_of_int c /. n)
        | None -> (0.0, 0.0)
      in
      let extra k =
        sum (List.map (fun m -> Option.value (List.assoc_opt k m.p.extras) ~default:0.0) traced)
        /. n
      in
      let recipe_busy, recipe_calls = lib_layer "rewrite.recipe" in
      let backend_busy, backend_calls = lib_layer "pipeline.compile_rewritten" in
      let analyze_busy, _ = lib_layer "analyze.program" in
      let glue =
        List.fold_left
          (fun a (name, l) -> if List.mem name glue_spans then a +. l.Span.self else a)
          0.0 layers
        /. n
      in
      let gc_units = sum (List.map (fun m -> m.p.units) untraced) in
      let traced_wall = best (fun m -> m.wall) traced in
      let values =
        [ ("suite.build_s", median !build_times);
          ("recipe.busy_s", recipe_busy); ("recipe.calls", recipe_calls);
          ("recipe.nodes_in", extra "recipe.nodes_in");
          ("recipe.nodes_out", extra "recipe.nodes_out");
          ("backend.busy_s", backend_busy); ("backend.calls", backend_calls);
          ("backend.instrs_out", extra "backend.instrs_out");
          ("analyze.busy_s", analyze_busy);
          ("geometry.schedule_s", span_busy "geometry.schedule");
          ("geometry.validate_s", span_busy "geometry.validate");
          ("race.busy_s", span_busy "race");
          ("verify.busy_s", span_busy "verify");
          ("verify.vectors", extra "verify.vectors");
          ("server.batch_busy_s", span_busy "server.run");
          ("server.executes", extra "server.executes");
          ("server.re_runs", extra "server.re_runs");
          ("cache.hit_ratio", extra "cache.hit_ratio");
          ("exec.verify_reads", extra "exec.verify_reads");
          ("exec.retries", extra "exec.retries");
          ("exec.remaps", extra "exec.remaps");
          ("horizon.busy_s", span_busy "horizon");
          ("horizon.sampled_epochs", extra "horizon.sampled_epochs");
          ("certify.busy_s", span_busy "certify");
          ("par.utilisation", extra "par.utilisation");
          ("gc.minor_words_per_unit",
           sum (List.map (fun m -> m.minor_words) untraced) /. Float.max 1.0 gc_units);
          ("gc.major_collections",
           median (List.map (fun m -> float_of_int m.major) untraced));
          ("glue.self_s", glue);
          ("trace.overhead_s", traced_wall -. wall_s) ]
      in
      Printf.printf "\nlayers (benchmark spans, per traced pass)\n  %-20s %8s %12s %12s\n"
        "span" "calls" "busy_s" "self_s";
      List.iter
        (fun (name, l) ->
          Printf.printf "  %-20s %8.1f %12.6f %12.6f\n" name (float_of_int l.Span.calls /. n)
            (l.Span.busy /. n) (l.Span.self /. n))
        layers;
      Printf.printf "library Profile spans (per traced pass)\n";
      List.iter
        (fun (name, (c, t)) ->
          Printf.printf "  %-28s %10.1f calls %12.6f s\n" name (float_of_int c /. n) (t /. n))
        prof;
      Printf.printf "per-layer metrics (per traced pass; gc per %s)\n" w.unit_name;
      List.iter (fun (k, v) -> line k v (layer_unit k)) values;
      Printf.printf "tracing overhead: %+.4f s per pass (best traced %.4f s - best untraced %.4f s)\n"
        (traced_wall -. wall_s) traced_wall wall_s;
      (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
      let file = Filename.concat out_dir (Printf.sprintf "trace-%s-seed%d.json" w.name seed) in
      Out_channel.with_open_bin file (fun oc ->
          output_string oc (Span.chrome_json ~lib:(Profile.spans ()) spans));
      Printf.printf "chrome trace: %s\n" file;
      List.map (fun (k, v) -> (k, v, layer_unit k)) values
    end
  in
  let problems = mismatches @ failures in
  List.iter (fun s -> Printf.printf "FAIL %s\n" s) problems;
  let metrics =
    if trace then layer_metrics
    else
      [ ("setup_s", setup_s, "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
        ("rm3_instructions", count "rm3_instructions", "count");
        ("rram_devices", count "rram_devices", "count");
        ("write_stdev", count "write_stdev", "writes") ]
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (problems = []) attempted failed
    (String.concat "," (List.map json_metric metrics));
  if problems <> [] then exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0.0 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME compile-epfl | design-sweep | serve-steady | lifetime-grid");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measuring time (required)");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run (default 0)") ]
  in
  let usage = "main.exe --workload NAME --seconds S [--seed N] [--trace 0|1]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let seed = !seed in
  let w =
    match !workload with
    | "compile-epfl" -> compile_epfl ~seed
    | "design-sweep" -> design_sweep ()
    | "serve-steady" -> serve_steady ~seed
    | "lifetime-grid" -> lifetime_grid ~seed
    | other ->
      Printf.eprintf "unknown workload %S\n%s\n" other usage;
      exit 2
  in
  if (!trace <> 0 && !trace <> 1) || not (!seconds > 0.0) then begin
    prerr_endline usage;
    exit 2
  end;
  run w ~seed ~seconds:!seconds ~trace:(!trace = 1)
