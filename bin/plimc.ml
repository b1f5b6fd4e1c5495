(* plimc — endurance-aware PLiM compiler driver.

   Compile a named benchmark or a [.mig] file to PLiM assembly under any of
   the paper's configurations, inspect write-traffic statistics, execute
   programs on the behavioural crossbar, and export graphs. *)

module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io
module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Asm = Plim_isa.Asm
module Stats = Plim_stats.Stats
module Lifetime = Plim_stats.Lifetime
module Controller = Plim_machine.Plim_controller
module Campaign = Plim_machine.Campaign
module Leveling = Plim_rram.Leveling
module Fault_model = Plim_fault.Fault_model
module Analyze = Plim_analyze
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace
module Profile = Plim_obs.Profile
module Report = Plim_telemetry.Report
module Wear = Plim_telemetry.Wear
module Json = Plim_telemetry.Json
module Geometry = Plim_geometry

open Cmdliner

(* ---------------------------------------------------------------- *)
(* Observability: --trace/--metrics/--profile are shared by the
   compiling subcommands; the [profile] subcommand prints phase totals. *)

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Stream structured trace events (allocator cell lifecycle, RM3 \
                 writes, rewrite passes) as JSON lines to $(docv).")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Print a snapshot of all metrics counters to stderr when the \
                 command finishes.")

let profile_flag_arg =
  Arg.(value & opt (some string) None
       & info [ "profile" ] ~docv:"FILE"
           ~doc:"Record profiling spans and write them as Chrome trace_event \
                 JSON to $(docv) (open in chrome://tracing or ui.perfetto.dev).")

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_chrome_trace path =
  write_file path (Profile.to_chrome_json ());
  Printf.eprintf "wrote Chrome trace to %s (open in chrome://tracing)\n%!" path

let print_metrics () =
  Format.eprintf "metrics snapshot:@.%a" Metrics.pp_snapshot (Metrics.snapshot ())

(* The --trace/--metrics/--profile triple as one wrapper: run [f] under
   the requested observability setup and emit the artefacts even when
   [f] leaves through an exception. *)
let obs_term =
  let with_obs trace metrics profile f =
    if Option.is_some profile then Profile.enable ();
    let finish () =
      Option.iter write_chrome_trace profile;
      if metrics then print_metrics ()
    in
    Fun.protect ~finally:finish (fun () ->
        match trace with
        | Some path -> Trace.with_jsonl path f
        | None -> f ())
  in
  Term.(const with_obs $ trace_arg $ metrics_arg $ profile_flag_arg)

(* ---------------------------------------------------------------- *)
(* Validating converters: a value outside the range the libraries accept
   is a usage error (exit 2 with a message), never an uncaught
   Invalid_argument. *)

let checked conv ~what ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when ok v -> Ok v
    | Ok _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
    | Error _ as e -> e
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = checked Arg.int ~what:"a positive integer" (fun n -> n > 0)
let non_negative_int = checked Arg.int ~what:"a non-negative integer" (fun n -> n >= 0)
let positive_float = checked Arg.float ~what:"a positive number" (fun x -> x > 0.0)

(* a nan, infinite or negative report gate would compare false against
   every delta and silently switch the gate off *)
let gate_float =
  checked Arg.float ~what:"a finite number >= 0" (fun x -> Float.is_finite x && x >= 0.0)

let unit_interval =
  checked Arg.float ~what:"a number in [0,1]" (fun x -> x >= 0.0 && x <= 1.0)

let jobs_arg ~default ~doc =
  Arg.(value & opt positive_int default & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* [f] gets the pool only when it has more than one domain *)
let with_jobs jobs f =
  Plim_par.with_pool ~jobs (fun pool ->
      f (if Plim_par.jobs pool > 1 then Some pool else None))

(* ---------------------------------------------------------------- *)

(* A malformed or unreadable .mig, .blif or .plim file is a usage error:
   exit 2, never an uncaught exception; so is a source that is neither a
   file nor a known benchmark.  A read error already names the
   file (Plim_util.File.read); a parse error does not. *)
let or_exit_2 path = function
  | Ok x -> x
  | Error e ->
    if String.starts_with ~prefix:(path ^ ": ") e then Printf.eprintf "plimc: %s\n" e
    else Printf.eprintf "plimc: %s: %s\n" path e;
    exit 2

let load_mig source =
  if Sys.file_exists source then
    or_exit_2 source
      (if Filename.check_suffix source ".blif" then Plim_mig.Blif.read_file source
       else Mig_io.read_file source)
  else
    match Suite.find source with
    | spec -> Suite.build_cached spec
    | exception Not_found ->
      Printf.eprintf
        "plimc: %S is neither a file nor a known benchmark (try 'plimc list')\n" source;
      exit 2

let load_plim path = or_exit_2 path (Asm.read_file path)

let preset_of_string = function
  | "naive" -> Ok Pipeline.naive
  | "dac16" -> Ok Pipeline.dac16
  | "min-write" -> Ok Pipeline.min_write
  | "endurance-rewrite" -> Ok Pipeline.endurance_rewrite
  | "endurance-full" -> Ok Pipeline.endurance_full
  | s -> Error (`Msg (Printf.sprintf "unknown configuration %S" s))

let preset_conv =
  Arg.conv
    ( (fun s -> preset_of_string s),
      fun ppf c -> Format.pp_print_string ppf (Pipeline.config_name c) )

let config_arg =
  let doc =
    "Compiler configuration: naive, dac16, min-write, endurance-rewrite or \
     endurance-full."
  in
  Arg.(value & opt preset_conv Pipeline.endurance_full & info [ "c"; "config" ] ~doc)

let cap_arg =
  let doc = "Maximum write count strategy: cap per-device writes at $(docv) (>= 3)." in
  let cap = checked Arg.int ~what:"a write cap (>= 3)" (fun n -> n >= 3) in
  Arg.(value & opt (some cap) None & info [ "cap" ] ~docv:"N" ~doc)

let geometry_conv =
  Arg.conv
    ( (fun s ->
        match Geometry.of_string s with
        | Ok g -> Ok g
        | Error msg -> Error (`Msg msg)),
      fun ppf g -> Format.pp_print_string ppf (Geometry.to_string g) )

let geometry_arg =
  Arg.(value & opt (some geometry_conv) None
       & info [ "geometry" ] ~docv:"ROWSxCOLS"
           ~doc:"Crossbar geometry: place cells row-major on a bounded \
                 $(docv) grid and schedule independent same-row RM3 \
                 instructions into parallel groups.  Reports latency in \
                 groups alongside the flat cycle count; fails if the \
                 program's footprint exceeds the grid area.")

(* Group-latency report of a compiled program under [--geometry]; exits 1
   when the program does not fit the grid.  Shared by compile/stats. *)
let geometry_report ~source g p =
  match Geometry.schedule g p with
  | Error msg ->
    Printf.eprintf "plimc: %s: %s\n" source msg;
    exit 1
  | Ok sched ->
    (match Geometry.validate p sched with
    | Ok () -> ()
    | Error msg ->
      Printf.eprintf "plimc: %s: internal geometry invariant violated: %s\n"
        source msg;
      exit 1);
    sched

let rewriting_arg =
  let cenum =
    Arg.enum
      [ ("none", Recipe.No_rewriting); ("dac16", Recipe.Algorithm1);
        ("endurance", Recipe.Algorithm2) ]
  in
  Arg.(value & opt (some cenum) None
       & info [ "rewriting" ] ~docv:"R"
           ~doc:"Override the MIG rewriting recipe: none, dac16 or endurance.")

let selection_arg =
  let cenum =
    Arg.enum
      [ ("in-order", Plim_core.Select.In_order);
        ("release-first", Plim_core.Select.Release_first);
        ("level-first", Plim_core.Select.Level_first) ]
  in
  Arg.(value & opt (some cenum) None
       & info [ "selection" ] ~docv:"S"
           ~doc:"Override node selection: in-order, release-first or level-first.")

let allocation_arg =
  let cenum =
    Arg.enum
      [ ("lifo", Plim_core.Alloc.Lifo); ("fifo", Plim_core.Alloc.Fifo);
        ("min-write", Plim_core.Alloc.Min_write) ]
  in
  Arg.(value & opt (some cenum) None
       & info [ "allocation" ] ~docv:"A"
           ~doc:"Override device allocation: lifo, fifo or min-write.")

let effort_arg =
  let doc = "MIG rewriting cycles (the paper uses 5)." in
  Arg.(value & opt int 5 & info [ "effort" ] ~doc)

(* --config, refined by --rewriting/--selection/--allocation, --effort
   and --cap: the compiler configuration of every command that compiles *)
let pipeline_term =
  let make (config : Pipeline.config) rewriting selection allocation effort cap =
    let config =
      { config with
        rewriting = Option.value rewriting ~default:config.rewriting;
        selection = Option.value selection ~default:config.selection;
        allocation = Option.value allocation ~default:config.allocation;
        effort }
    in
    match cap with Some w -> Pipeline.with_cap w config | None -> config
  in
  Term.(
    const make $ config_arg $ rewriting_arg $ selection_arg $ allocation_arg
    $ effort_arg $ cap_arg)

let zero_inputs p =
  Program.inputs_of_vector p.Program.pi_cells
    (Array.make (Array.length p.Program.pi_cells) false)

let source_arg =
  let doc = "Benchmark name (see $(b,plimc list)) or a .mig file." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOURCE" ~doc)

(* ---------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-12s %-15s %6s %6s\n" "name" "family" "PI" "PO";
    List.iter
      (fun spec ->
        Printf.printf "%-12s %-15s %6d %6d\n" spec.Suite.name
          (match spec.Suite.family with
          | Suite.Arithmetic -> "arithmetic"
          | Suite.Random_control -> "random-control")
          spec.Suite.pi spec.Suite.po)
      Suite.all;
    Printf.printf "\nsmall test instances: %s\n"
      (String.concat ", " (List.map (fun s -> s.Suite.name) Suite.small_suite))
  in
  Cmd.v (Cmd.info "list" ~doc:"List the benchmark suite.") Term.(const run $ const ())

let compile_run obs source config geometry output dot verify =
  obs @@ fun () ->
  let g = load_mig source in
  let result = Pipeline.compile config g in
  let p = result.Pipeline.program in
  Printf.eprintf "%s: %s: %d instructions, %d devices, %s\n%!" source
    (Pipeline.config_name config) (Program.length p) (Program.num_cells p)
    (Format.asprintf "%a" Stats.pp_summary result.Pipeline.write_summary);
  (match geometry with
  | None -> ()
  | Some grid ->
    let sched = geometry_report ~source grid p in
    Printf.eprintf
      "%s: geometry %s: %d groups (vs %d instructions), %d cross-row, widest \
       group %d\n%!"
      source (Geometry.to_string grid) (Geometry.num_groups sched)
      (Program.length p) sched.Geometry.s_cross_row
      (Geometry.max_group_size sched));
  (match dot with
  | Some path ->
    write_file path (Mig_io.to_dot result.Pipeline.rewritten);
    Printf.eprintf "wrote rewritten MIG to %s\n%!" path
  | None -> ());
  (if verify then
     match Verify.check_random ~trials:8 g p with
     | Ok () -> Printf.eprintf "verification: ok (8 random vectors)\n%!"
     | Error e ->
       Printf.eprintf "verification FAILED: %s\n%!" e;
       exit 1);
  (* geometry cross-check: the grouped execution must agree with the flat
     backend on every output (the byte-identity contract) *)
  (if verify then
     match geometry with
     | None -> ()
     | Some grid ->
       let inputs = zero_inputs p in
       let flat, _, _ = Controller.run p ~inputs in
       (match Controller.run_grouped ~geometry:grid p ~inputs with
       | Ok (grouped, _, _) when grouped = flat ->
         Printf.eprintf "geometry cross-check: ok (grouped = flat)\n%!"
       | Ok _ ->
         Printf.eprintf "geometry cross-check FAILED: outputs differ\n%!";
         exit 1
       | Error e ->
         Printf.eprintf "geometry cross-check FAILED: %s\n%!" e;
         exit 1));
  match output with
  | Some path ->
    Asm.write_file path p;
    Printf.eprintf "wrote PLiM assembly to %s\n%!" path
  | None -> print_string (Asm.to_string p)

let compile_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write assembly to $(docv).")
  in
  let dot =
    Arg.(value & opt (some string) None
         & info [ "dot" ] ~docv:"FILE" ~doc:"Export the rewritten MIG as Graphviz.")
  in
  let verify =
    Arg.(value & flag
         & info [ "verify" ] ~doc:"Execute on the crossbar machine and compare with the MIG.")
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a benchmark, .mig or .blif file to PLiM assembly.")
    Term.(
      const compile_run $ obs_term $ source_arg $ pipeline_term $ geometry_arg
      $ output $ dot $ verify)

let stats_run obs source config geometry endurance =
  obs @@ fun () ->
  let g = load_mig source in
  let result = Pipeline.compile config g in
  let p = result.Pipeline.program in
  let s = result.Pipeline.write_summary in
  Printf.printf "configuration : %s\n" (Pipeline.config_name config);
  Printf.printf "MIG           : %d nodes (rewritten %d), depth %d\n" (Mig.size g)
    (Mig.size result.Pipeline.rewritten)
    (Mig.depth result.Pipeline.rewritten);
  Printf.printf "#I            : %d RM3 instructions\n" (Program.length p);
  Printf.printf "#R            : %d RRAM devices\n" (Program.num_cells p);
  (match geometry with
  | None -> ()
  | Some grid ->
    let sched = geometry_report ~source grid p in
    Printf.printf
      "geometry      : %s grid (area %d), %d groups, %d cross-row, widest group \
       %d\n"
      (Geometry.to_string grid) (Geometry.area grid) (Geometry.num_groups sched)
      sched.Geometry.s_cross_row
      (Geometry.max_group_size sched));
  Printf.printf
    "writes        : min %d / max %d / mean %.2f / stdev %.2f / p50 %d / p90 %d / \
     p99 %d\n"
    s.Stats.min s.Stats.max s.Stats.mean s.Stats.stdev s.Stats.p50 s.Stats.p90
    s.Stats.p99;
  let writes = Program.static_write_counts p in
  Printf.printf "histogram     :";
  List.iter
    (fun (b, c) -> Printf.printf " [%d-%d):%d" b (b + 10) c)
    (Stats.histogram ~bucket:10 writes);
  print_newline ();
  let lt = Lifetime.estimate ~endurance writes in
  Printf.printf "lifetime      : %s (endurance %.1e writes/cell)\n"
    (Format.asprintf "%a" Lifetime.pp lt)
    endurance;
  Printf.printf "footprint     : %s\n"
    (Format.asprintf "%a" Plim_isa.Encoding.pp_footprint (Plim_isa.Encoding.footprint p));
  let st = (Analyze.analyze ?max_writes:config.Pipeline.max_write p).Analyze.storage in
  Printf.printf "storage       : total %d slot-instructions / max span %d / mean %.2f\n"
    st.Analyze.total_span st.Analyze.max_span st.Analyze.mean_span;
  (* energy of one execution with all-zero inputs *)
  let _, xbar, run_stats = Controller.run p ~inputs:(zero_inputs p) in
  Printf.printf "energy        : %s\n"
    (Format.asprintf "%a" Plim_machine.Energy.pp_report
       (Plim_machine.Energy.of_run xbar run_stats))

let stats_cmd =
  let endurance =
    Arg.(value & opt positive_float 1e10
         & info [ "endurance" ] ~docv:"E" ~doc:"Per-cell write endurance budget.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Compile and report write-traffic statistics and lifetime.")
    Term.(
      const stats_run $ obs_term $ source_arg $ pipeline_term $ geometry_arg
      $ endurance)

let exec_run path bits =
  let p = load_plim path in
  let n = Array.length p.Program.pi_cells in
  if Array.length bits <> n then begin
    Printf.eprintf "plimc run: BITS: program has %d inputs, got %d bits\n" n
      (Array.length bits);
    exit 2
  end;
  let inputs = Program.inputs_of_vector p.Program.pi_cells bits in
  let outputs, xbar, stats = Controller.run p ~inputs in
  List.iter (fun (name, v) -> Printf.printf "%s = %d\n" name (if v then 1 else 0)) outputs;
  Printf.printf "(%d instructions, %d cycles, max device writes %d)\n"
    stats.Controller.instructions stats.Controller.cycles
    (Array.fold_left max 0 (Plim_rram.Crossbar.write_counts xbar))

(* one 0/1 character per primary input; anything else is a usage error *)
let bits_conv =
  let parse s =
    if String.for_all (fun c -> c = '0' || c = '1') s then
      Ok (Array.init (String.length s) (fun i -> s.[i] = '1'))
    else Error (`Msg (Printf.sprintf "%S is not a string of 0s and 1s" s))
  in
  let print ppf bits =
    Array.iter (fun b -> Format.pp_print_char ppf (if b then '1' else '0')) bits
  in
  Arg.conv (parse, print)

let run_cmd =
  let path =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"PROGRAM" ~doc:"PLiM assembly file.")
  in
  let bits =
    Arg.(required & pos 1 (some bits_conv) None
         & info [] ~docv:"BITS" ~doc:"Input bits in PI declaration order, e.g. 1011.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a PLiM assembly file on the crossbar machine.")
    Term.(const exec_run $ path $ bits)

let export_run source output =
  let g = load_mig source in
  let serialise path =
    if Filename.check_suffix path ".blif" then Plim_mig.Blif.to_string g
    else Mig_io.to_string g
  in
  match output with
  | Some path ->
    write_file path (serialise path);
    Printf.eprintf "wrote %s\n%!" path
  | None -> print_string (Mig_io.to_string g)

let export_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write to $(docv) instead of stdout (.blif selects BLIF).")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a benchmark as a .mig or .blif file.")
    Term.(const export_run $ source_arg $ output)

let profile_run source config exec output metrics =
  Profile.enable ();
  let g = load_mig source in
  let result = Pipeline.compile config g in
  let p = result.Pipeline.program in
  if exec then ignore (Controller.run p ~inputs:(zero_inputs p));
  Printf.printf "%s: %s: %d instructions, %d devices\n" source
    (Pipeline.config_name config) (Program.length p) (Program.num_cells p);
  Printf.printf "\nphase totals (wall clock):\n";
  Format.printf "%a" Profile.pp_totals (Profile.totals ());
  Option.iter write_chrome_trace output;
  if metrics then print_metrics ()

let profile_cmd =
  let exec =
    Arg.(value & flag
         & info [ "exec" ]
             ~doc:"Also execute the compiled program once (all-false inputs) so \
                   machine and crossbar phases appear in the profile.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the spans as Chrome trace_event JSON to $(docv).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Compile a benchmark with profiling spans enabled and print per-phase \
          wall-clock totals (rewriting passes, node selection, translation, \
          machine execution).")
    Term.(const profile_run $ source_arg $ pipeline_term $ exec $ output $ metrics_arg)

(* ---------------------------------------------------------------- *)
(* faults: compile a benchmark, wrap the crossbar in the fault layer and
   run a graceful-degradation campaign. *)

let fault_spec_conv =
  Arg.conv
    ( (fun s ->
        match Fault_model.parse s with Ok spec -> Ok spec | Error e -> Error (`Msg e)),
      Fault_model.pp )

let faults_run obs source config inject spares verify_writes seed executions
    endurance avoid heatmap wear_json =
  obs @@ fun () ->
  let inject =
    match seed with Some s -> { inject with Fault_model.seed = s } | None -> inject
  in
  let g = load_mig source in
  let is_faulty =
    if avoid then Some (fun i -> Fault_model.cell_fault inject i <> None) else None
  in
  let result = Pipeline.compile ?is_faulty config g in
  let p = result.Pipeline.program in
  Printf.printf "program       : %s: %s, %d instructions, %d devices\n" source
    (Pipeline.config_name config) (Program.length p) (Program.num_cells p);
  Printf.printf "fault model   : %s\n" (Fault_model.to_string inject);
  Printf.printf "repair        : %d spare lines, write-verify %s%s\n" spares
    (if verify_writes then "on" else "off")
    (if avoid then ", fault-aware allocation" else "");
  let d =
    Campaign.run_degraded
      ?seed
      ~max_executions:executions
      ?endurance
      ~spares
      ~verify:verify_writes
      ~fault_spec:inject
      ~oracle:(Mig.eval g)
      p
  in
  Printf.printf "executions    : %d completed (%d correct, %d incorrect)\n" d.Campaign.executions
    d.Campaign.correct d.Campaign.incorrect;
  Printf.printf "faults        : %d injected, %d worn out during campaign\n" d.Campaign.injected
    d.Campaign.worn_out;
  Printf.printf "repairs       : %d detections, %d remaps, %d spares left\n"
    d.Campaign.detections d.Campaign.remaps d.Campaign.spares_remaining;
  Printf.printf "verify cost   : %d read-backs, %d retries, %d transient write failures\n"
    d.Campaign.verify_reads d.Campaign.retries d.Campaign.transient_failures;
  Printf.printf "write traffic : %d physical writes (including repair traffic)\n"
    d.Campaign.degraded_write_total;
  Printf.printf "capacity      : %.4f surviving fraction\n" d.Campaign.final_capacity;
  (match d.Campaign.ended with
  | Campaign.Max_executions -> Printf.printf "ended         : execution budget reached\n"
  | Campaign.Spares_exhausted l ->
    Printf.printf "ended         : spare pool exhausted repairing logical line %d\n" l);
  if d.Campaign.curve <> [] then begin
    Printf.printf "degradation   : (execution, capacity, spares left)\n";
    List.iter
      (fun pt ->
        Printf.printf "                %6d  %.4f  %d\n" pt.Campaign.at_execution
          pt.Campaign.capacity pt.Campaign.spares_left)
      d.Campaign.curve
  end;
  if heatmap then begin
    Printf.printf "wear skew     : trajectory (decimated; counted physical writes)\n";
    Format.printf "%a" Campaign.pp_trajectory d.Campaign.trajectory;
    Format.print_flush ();
    Printf.printf "wear heatmap  : %d physical cells incl. %d spares\n"
      (Array.length d.Campaign.final_wear)
      spares;
    print_string (Wear.heatmap d.Campaign.final_wear)
  end;
  (match wear_json with
  | Some path ->
    write_file path
      (Json.write
         (Obj
            [ ("schema", Str "plim-wear/v1"); ("source", Str source);
              ("config", Str (Pipeline.config_name config));
              ("executions", Int d.Campaign.executions);
              ("trajectory", Campaign.trajectory_json d.Campaign.trajectory);
              ("heatmap", Wear.heatmap_json ~label:source d.Campaign.final_wear) ])
      ^ "\n");
    Printf.eprintf "wrote wear trajectory + heatmap to %s\n%!" path
  | None -> ());
  if d.Campaign.incorrect > 0 then exit 1

let faults_cmd =
  let inject =
    Arg.(value & opt fault_spec_conv Fault_model.none
         & info [ "inject" ] ~docv:"SPEC"
             ~doc:"Fault injection spec, e.g. \
                   $(b,sa0:0.01,sa1:0.005,transient:1e-4,growth:1e-6,seed:42). Keys: \
                   sa0/sa1 (per-cell stuck-at rates), transient (write failure \
                   probability), growth (transient increase per prior write), seed. \
                   $(b,none) disables injection.")
  in
  let spares =
    Arg.(value & opt non_negative_int 0
         & info [ "spares" ] ~docv:"N" ~doc:"Spare physical lines for remapping.")
  in
  let verify_writes =
    Arg.(value & flag
         & info [ "verify-writes" ]
             ~doc:"Read back every destructive write; on mismatch retry, then remap \
                   to a spare line. Without this flag faults go undetected.")
  in
  let seed =
    Arg.(value & opt (some int) None
         & info [ "seed" ] ~docv:"S"
             ~doc:"Campaign seed (input vectors) and fault-map seed override.")
  in
  let executions =
    Arg.(value & opt int 100
         & info [ "executions" ] ~docv:"N" ~doc:"Execution budget for the campaign.")
  in
  let endurance =
    Arg.(value & opt (some int) None
         & info [ "endurance" ] ~docv:"E"
             ~doc:"Optional per-cell endurance; worn-out cells become stuck-at faults.")
  in
  let avoid =
    Arg.(value & flag
         & info [ "avoid-faulty" ]
             ~doc:"Fault-aware allocation: compile around the known fault map so the \
                   program never touches an injected-faulty device.")
  in
  let heatmap =
    Arg.(value & flag
         & info [ "heatmap" ]
             ~doc:"Print the wear-skew time series (stdev, Gini, max/mean) sampled \
                   over the campaign and an ASCII per-cell wear heatmap at the end.")
  in
  let wear_json =
    Arg.(value & opt (some string) None
         & info [ "wear-json" ] ~docv:"FILE"
             ~doc:"Write the wear trajectory and final heatmap as a plim-wear/v1 \
                   JSON document to $(docv).")
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Compile a benchmark and run a graceful-degradation campaign behind the \
          fault-injection layer: stuck-at and transient faults, write-verify \
          detection and spare-line remapping.")
    Term.(
      const faults_run $ obs_term $ source_arg $ pipeline_term $ inject $ spares
      $ verify_writes $ seed $ executions $ endurance $ avoid $ heatmap $ wear_json)

(* ---------------------------------------------------------------- *)
(* fuzz: differential conformance fuzzing with a persisted corpus. *)

let print_counterexample (cex : Plim_check.Fuzz.counterexample) =
  Printf.printf "\ncounterexample (case %d, case-seed %d, %d shrink steps):\n"
    cex.Plim_check.Fuzz.run_index cex.Plim_check.Fuzz.case_seed
    cex.Plim_check.Fuzz.shrink_steps;
  print_string (Plim_check.Gen.print cex.Plim_check.Fuzz.desc);
  List.iter
    (fun f -> Printf.printf "  %s\n" (Plim_check.Check.failure_to_string f))
    cex.Plim_check.Fuzz.failures;
  (match cex.Plim_check.Fuzz.path with
  | Some path ->
    Printf.printf "  saved to %s (replayed by dune runtest; rerun with 'plimc fuzz \
                   --replay %s')\n"
      path path
  | None -> ());
  Printf.printf "  regenerate with 'plimc fuzz --case-seed %d'\n"
    cex.Plim_check.Fuzz.case_seed

let fuzz_run obs runs seed max_inputs max_nodes corpus no_save no_shrink case_seed
    replay jobs =
  obs @@ fun () ->
  match replay with
  | Some path ->
    let g = or_exit_2 path (Plim_check.Corpus.load_file path) in
    (match Plim_check.Check.run g with
    | [] -> Printf.printf "%s: conformance ok\n" path
    | failures ->
      Printf.printf "%s: %d failures\n" path (List.length failures);
      List.iter
        (fun f -> Printf.printf "  %s\n" (Plim_check.Check.failure_to_string f))
        failures;
      exit 1)
  | None ->
    let options =
      { Plim_check.Fuzz.runs;
        seed;
        max_inputs;
        max_nodes;
        max_outputs = 4;
        corpus_dir = (if no_save then None else Some corpus);
        shrink = not no_shrink }
    in
    let case_seeds = Option.map (fun s -> [ s ]) case_seed in
    let on_case i =
      if i > 0 && i mod 50 = 0 then Printf.eprintf "fuzz: %d/%d cases\n%!" i runs
    in
    (* case seeds are fixed up front and shrinking runs sequentially in
       submission order, so the report is the same at any -j *)
    let report =
      with_jobs jobs (fun pool -> Plim_check.Fuzz.run ?pool ?case_seeds ~on_case options)
    in
    let n = List.length report.Plim_check.Fuzz.counterexamples in
    Printf.printf "fuzz: %d cases (seed %d, <=%d inputs, <=%d nodes): %d counterexample%s\n"
      report.Plim_check.Fuzz.cases seed max_inputs max_nodes n
      (if n = 1 then "" else "s");
    List.iter print_counterexample report.Plim_check.Fuzz.counterexamples;
    if n > 0 then exit 1

let fuzz_cmd =
  let runs =
    Arg.(value & opt int 200
         & info [ "runs" ] ~docv:"N" ~doc:"Number of random MIGs to check.")
  in
  let seed =
    Arg.(value & opt int 42
         & info [ "seed" ] ~docv:"S"
             ~doc:"Campaign master seed; the case sequence is a pure function of it.")
  in
  let max_inputs =
    Arg.(value & opt int 6
         & info [ "max-inputs" ] ~docv:"N"
             ~doc:"Upper bound on primary inputs per generated MIG (<= 8 keeps the \
                   functional check exhaustive).")
  in
  let max_nodes =
    Arg.(value & opt int 32
         & info [ "max-nodes" ] ~docv:"N"
             ~doc:"Upper bound on majority nodes per generated MIG.")
  in
  let corpus =
    Arg.(value & opt string "test/corpus"
         & info [ "corpus" ] ~docv:"DIR"
             ~doc:"Directory where shrunk counterexamples are persisted.")
  in
  let no_save =
    Arg.(value & flag
         & info [ "no-save" ] ~doc:"Do not persist counterexamples to the corpus.")
  in
  let no_shrink =
    Arg.(value & flag
         & info [ "no-shrink" ] ~doc:"Report raw counterexamples without shrinking.")
  in
  let case_seed =
    Arg.(value & opt (some int) None
         & info [ "case-seed" ] ~docv:"S"
             ~doc:"Check the single case this derived seed generates (printed with \
                   every counterexample), instead of a full campaign.")
  in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"FILE"
             ~doc:"Run the conformance suite on one corpus entry (.mig file) and exit.")
  in
  let jobs =
    jobs_arg ~default:(Plim_par.default_jobs ())
      ~doc:"Check cases on $(docv) domains.  The report — including the \
            first counterexample and every shrunk witness — is byte-identical \
            at every $(docv); $(docv)=1 never spawns a domain.  Defaults to \
            the recommended domain count."
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential conformance fuzzing: generate random MIGs, compile each under \
          the full configuration matrix (rewriting x write strategies x selection x \
          cap x fault-aware allocation), check every program against MIG evaluation \
          (exhaustive + symbolic), cross-validate write counts and the node-selection \
          heap against a naive reference, shrink failures to minimal witnesses and \
          persist them in the regression corpus.")
    Term.(
      const fuzz_run $ obs_term $ runs $ seed $ max_inputs $ max_nodes $ corpus
      $ no_save $ no_shrink $ case_seed $ replay $ jobs)

(* ---------------------------------------------------------------- *)
(* lint: static dataflow analysis — def-use chains, liveness, endurance
   hygiene — of compiled benchmarks or on-disk .plim assembly. *)

let lint_run obs sources config geometry max_writes json jobs =
  obs @@ fun () ->
  if sources = [] then begin
    Printf.eprintf "plimc lint: no sources given\n";
    exit 2
  end;
  (* .plim assembly is linted as-is, and read here so a malformed file
     exits before the pool starts; anything else goes through the
     compiler under the requested configuration first *)
  let sources =
    List.map
      (fun source ->
        if Sys.file_exists source && Filename.check_suffix source ".plim" then
          (source, Some (load_plim source))
        else (source, None))
      sources
  in
  let analyze_source = function
    | source, Some p -> (source, p, Analyze.analyze ?max_writes p)
    | source, None ->
      let g = load_mig source in
      let result = Pipeline.compile config g in
      let p = result.Pipeline.program in
      let cap = match max_writes with Some w -> Some w | None -> config.Pipeline.max_write in
      (Printf.sprintf "%s[%s]" source (Pipeline.config_name config),
       p, Analyze.analyze ?max_writes:cap p)
  in
  let results =
    Plim_par.with_pool ~jobs (fun pool -> Plim_par.map pool ~f:analyze_source sources)
  in
  let error_total = ref 0 in
  if json then
    print_endline
      (Json.write
         (Arr (List.map (fun (source, p, a) -> Analyze.to_json ~source p a) results)))
  else
    List.iter
      (fun (source, p, a) ->
        let errors = List.length (Analyze.errors a) in
        let count sev =
          List.length
            (List.filter (fun d -> d.Analyze.severity = sev) a.Analyze.diagnostics)
        in
        Printf.printf
          "%s: %d instructions, %d devices: %d error(s), %d warning(s), %d info\n"
          source (Program.length p) (Program.num_cells p) errors (count Analyze.Warning)
          (count Analyze.Info);
        List.iter
          (fun d -> Printf.printf "  %s\n" (Analyze.diagnostic_to_string d))
          a.Analyze.diagnostics;
        let st = a.Analyze.storage in
        Printf.printf "  storage: total %d slot-instructions, max span %d, mean %.2f\n"
          st.Analyze.total_span st.Analyze.max_span st.Analyze.mean_span)
      results;
  List.iter
    (fun (_, _, a) -> error_total := !error_total + List.length (Analyze.errors a))
    results;
  (* --geometry: every program must fit the grid and its row-parallel
     schedule must satisfy the full invariant set (coverage, hazard
     order, single-row groups, groups <= instructions) *)
  (match geometry with
  | None -> ()
  | Some grid ->
    List.iter
      (fun (source, p, _) ->
        match Geometry.schedule grid p with
        | Error msg ->
          Printf.eprintf "%s: geometry: %s\n" source msg;
          incr error_total
        | Ok sched -> (
          match Geometry.validate p sched with
          | Ok () -> (
            (* second opinion: the certify race detector re-derives the
               hazard edges from the def-use chains *)
            match Plim_certify.Race.check_schedule p sched with
            | Ok () ->
              if not json then
                Printf.printf
                  "%s: geometry %s: %d groups, %d cross-row: ok (race-free)\n"
                  source (Geometry.to_string grid) (Geometry.num_groups sched)
                  sched.Geometry.s_cross_row
            | Error msg ->
              Printf.eprintf "%s: geometry race: %s\n" source msg;
              incr error_total)
          | Error msg ->
            Printf.eprintf "%s: geometry invariant: %s\n" source msg;
            incr error_total))
      results);
  if !error_total > 0 then exit 1

let lint_cmd =
  let sources =
    Arg.(value & pos_all string []
         & info [] ~docv:"SOURCE"
             ~doc:"Benchmark names, .mig/.blif files (compiled first) or .plim \
                   assembly files (linted as-is).")
  in
  let max_writes =
    Arg.(value & opt (some int) None
         & info [ "max-writes" ] ~docv:"W"
             ~doc:"Check the static per-cell write bound against cap $(docv) \
                   (defaults to $(b,--cap) when compiling).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one plim-lint/v1 JSON object per source (as a JSON array) \
                   instead of text.")
  in
  let jobs =
    jobs_arg ~default:1
      ~doc:"Analyze sources on $(docv) domains; output order is \
            submission order at every $(docv)."
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static dataflow analysis of RM3 programs: per-cell def-use chains and \
          liveness intervals, use-before-def / dead-write / RRAM-leak / \
          PO-clobber / endurance-cap diagnostics, and the storage-duration \
          report (the quantity Algorithm 3 minimizes).  Exits 1 if any source \
          has errors."
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 on success; 1 if any source produced error diagnostics; 2 on \
               usage errors." ])
    Term.(
      const lint_run $ obs_term $ sources $ pipeline_term $ geometry_arg $ max_writes
      $ json $ jobs)

let report_run current against threshold min_abs json verbose =
  match
    Report.compare_files ~threshold_pct:threshold ~min_abs ~baseline:against
      ~current ()
  with
  | Error e ->
    Printf.eprintf "plimc report: %s\n" e;
    exit 2
  | Ok c ->
    if json then print_string (Json.write (Report.to_json c))
    else print_string (Report.render ~verbose c);
    if Report.has_regressions c then exit 1

let report_cmd =
  let current =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"CURRENT"
             ~doc:"The plim-bench/v1 or /v2 results file under test (e.g. \
                   bench/results/latest.json).")
  in
  let against =
    Arg.(required & opt (some file) None
         & info [ "against" ] ~docv:"BASELINE"
             ~doc:"Baseline results file to diff $(i,CURRENT) against.")
  in
  let threshold =
    Arg.(value & opt gate_float 2.0
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:"Relative growth (percent) a metric must exceed to count as a \
                   regression.")
  in
  let min_abs =
    Arg.(value & opt gate_float 1e-9
         & info [ "min-abs" ] ~docv:"X"
             ~doc:"Absolute growth floor below which a delta never gates; \
                   identical runs always report zero regressions.")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit the plim-report/v1 JSON document instead of text.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"List every improvement, not just the top 10.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Diff two bench result files metric-by-metric and gate on regressions: \
          per-benchmark/per-config deltas for instruction count, RRAM cells, \
          write totals and tails (max/stdev/p50/p90/p99), wear-skew (Gini, \
          max/mean) and storage durations.  All tracked metrics are costs, so a \
          regression is growth beyond both $(b,--threshold) and $(b,--min-abs); \
          wall-clock phases are reported but never gate."
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 when no metric regressed; 1 on regression; 2 on usage or parse \
               errors." ])
    Term.(const report_run $ current $ against $ threshold $ min_abs $ json $ verbose)

(* ---------------------------------------------------------------- *)
(* Request-mix commands: serve, horizon and certify take the programs of
   their mix as BENCH names and share the fleet shape and the mix flags;
   horizon and certify also share the whole wear model (strategy grid,
   levelling parameters). *)

let mix_sources_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"BENCH"
           ~doc:"Benchmarks forming the program mix, most popular first \
                 (default: the small suite).")

let mix_specs ~cmd = function
  | [] -> Suite.small_suite
  | names ->
    List.map
      (fun name ->
        match Suite.find name with
        | spec -> spec
        | exception Not_found ->
          Printf.eprintf "plimc %s: %S is not a known benchmark (try 'plimc list')\n"
            cmd name;
          exit 2)
      names

let zipf_arg =
  Arg.(value & opt float 1.0
       & info [ "zipf" ] ~docv:"S"
           ~doc:"Zipf exponent of program popularity (0 = uniform).")

(* [note] extends the help of one command *)
let compile_ratio_arg ?(note = "") () =
  Arg.(value & opt unit_interval 0.05
       & info [ "compile-ratio" ] ~docv:"P"
           ~doc:("Probability a sampled request is a (redundant) compile." ^ note))

let hot_arg =
  Arg.(value & opt unit_interval 0.8
       & info [ "hot" ] ~docv:"P"
           ~doc:"Probability an execution reuses a hot input vector.")

let hot_pool_arg =
  Arg.(value & opt non_negative_int 4
       & info [ "hot-pool" ] ~docv:"N" ~doc:"Recurring input vectors per program.")

(* --shards --spare-shards --cell-spares --lines over [base] *)
let fleet_term (base : Plim_serve.Server.config) =
  let shards =
    Arg.(value & opt positive_int 4
         & info [ "shards" ] ~docv:"N" ~doc:"Initially active crossbar shards.")
  in
  let spare_shards =
    Arg.(value & opt non_negative_int 1
         & info [ "spare-shards" ] ~docv:"N"
             ~doc:"Spare shards activated when an active shard is retired or \
                   dies.")
  in
  let cell_spares =
    Arg.(value & opt non_negative_int 8
         & info [ "cell-spares" ] ~docv:"N"
             ~doc:"Spare lines per shard (within-shard write-verify repair; \
                   sets the measured cell range of the wear model).")
  in
  let lines =
    Arg.(value & opt non_negative_int 0
         & info [ "lines" ] ~docv:"N"
             ~doc:"Logical lines per shard; 0 sizes to the largest compiled \
                   program at first use.")
  in
  let make shards spare_shards cell_spares lines =
    { base with Plim_serve.Server.shards; spare_shards; cell_spares; lines }
  in
  Term.(const make $ shards $ spare_shards $ cell_spares $ lines)

(* Everything but the mix programs: [wm_config.mix] is still the default
   and each command builds its own from the other [wm_] fields. *)
type wear_model = {
  wm_sources : string list;
  wm_strategies : Leveling.t list;
  wm_rates : float list;
  wm_zipf : float;
  wm_compile_ratio : float;
  wm_config : Plim_serve.Horizon.config;
}

let wear_model_term ?compile_ratio_note () =
  let strategy_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun e -> `Msg e) (Leveling.of_string s)),
        fun ppf st -> Format.pp_print_string ppf (Leveling.name st) )
  in
  let strategies =
    Arg.(value & opt_all strategy_conv []
         & info [ "strategy" ] ~docv:"S"
             ~doc:"Endurance strategy: $(b,none), $(b,start_gap), \
                   $(b,wolfram_remap) or $(b,start_gap+wolfram) (repeatable; \
                   default: all four).")
  in
  let rates =
    Arg.(value & opt_all unit_interval []
         & info [ "rate" ] ~docv:"R"
             ~doc:"Permanent-fault rate of the wear model (repeatable; \
                   default: 0).")
  in
  let endurance =
    Arg.(value & opt positive_float 2e5
         & info [ "endurance" ] ~docv:"E" ~doc:"Per-cell write budget.")
  in
  let epoch_requests =
    Arg.(value & opt positive_int 80
         & info [ "epoch-requests" ] ~docv:"N"
             ~doc:"Requests per epoch of simulated traffic.")
  in
  (* levelling periods are divisors in the wear model *)
  let psi =
    Arg.(value & opt positive_int 100
         & info [ "psi" ] ~docv:"N" ~doc:"Start-Gap rotation period.")
  in
  let rekey_period =
    Arg.(value & opt positive_int 50_000
         & info [ "rekey-period" ] ~docv:"N"
             ~doc:"Writes between WoLFRaM re-keys.")
  in
  let model_spares =
    Arg.(value & opt non_negative_int 8
         & info [ "model-spares" ] ~docv:"N"
             ~doc:"Spare lines per shard in the wear model.")
  in
  let make wm_sources strategies rates endurance epoch_requests psi
      wolfram_period model_spares server wm_zipf wm_compile_ratio =
    { wm_sources;
      wm_strategies = (match strategies with [] -> Leveling.all | ss -> ss);
      wm_rates = (match rates with [] -> [ 0.0 ] | rs -> rs);
      wm_zipf;
      wm_compile_ratio;
      wm_config =
        { Plim_serve.Horizon.default_config with
          server; endurance; epoch_requests; psi; wolfram_period; model_spares } }
  in
  Term.(
    const make $ mix_sources_arg $ strategies $ rates $ endurance
    $ epoch_requests $ psi $ rekey_period $ model_spares
    $ fleet_term Plim_serve.Horizon.default_config.server $ zipf_arg
    $ compile_ratio_arg ?note:compile_ratio_note ())

(* ---------------------------------------------------------------- *)
(* serve: the long-lived compile-and-execute service core replaying a
   seeded request mix against a fleet of persistent crossbar shards. *)

let serve_run obs sources requests seed fleet batch zipf hot hot_pool
    compile_ratio config geometry inject endurance no_verify no_check retire jobs
    wear_json json =
  obs @@ fun () ->
  let specs = mix_specs ~cmd:"serve" sources in
  let mix =
    Plim_serve.Workload.mix_of_suite ~zipf ~hot_fraction:hot ~hot_pool
      ~compile_ratio specs
  in
  let stream = Plim_serve.Workload.generate ~seed ~requests mix in
  let scfg =
    { fleet with
      Plim_serve.Server.pipeline = config;
      verify = not no_verify;
      fault_spec = inject;
      endurance;
      check = not no_check;
      seed;
      geometry }
  in
  let server = Plim_serve.Server.create scfg in
  let t0 = Unix.gettimeofday () in
  with_jobs jobs (fun pool ->
      List.iter
        (Printf.eprintf "plimc serve: cannot retire shard %d (unknown, spare or \
                         already retired)\n%!")
        (Plim_serve.Server.retire_drill ?pool ~batch server stream ~retire));
  let wall = Unix.gettimeofday () -. t0 in
  let s = Plim_serve.Server.summary server in
  (match wear_json with
  | Some path ->
    write_file path (Json.write (Plim_serve.Server.fleet_heatmap_json server) ^ "\n");
    Printf.eprintf "wrote fleet wear heatmaps to %s\n%!" path
  | None -> ());
  if json then
    print_endline
      (Json.write (Plim_serve.Server.row_json server ~label:"serve" ~wall_s:wall))
  else begin
    let lat = Plim_serve.Server.latency server in
    let skew = Plim_serve.Server.fleet_skew server in
    Printf.printf "mix           : %d programs, zipf %.2f, hot %.2f (pool %d), \
                   compile ratio %.2f\n"
      (List.length specs) zipf hot hot_pool compile_ratio;
    Printf.printf "requests      : %d served in %.3fs (%.0f req/s)\n" s.Plim_serve.Server.requests
      wall
      (if wall > 0.0 then float_of_int s.Plim_serve.Server.requests /. wall else 0.0);
    Printf.printf "compile cache : %d hits, %d misses, %d compiles\n"
      s.Plim_serve.Server.cache_hits s.Plim_serve.Server.cache_misses
      s.Plim_serve.Server.compiles;
    Printf.printf "executions    : %d completed, %d re-runs, %d rejected, %d incorrect\n"
      s.Plim_serve.Server.executes s.Plim_serve.Server.re_runs
      s.Plim_serve.Server.rejected s.Plim_serve.Server.incorrect;
    Printf.printf "latency       : p50 %d / p90 %d / p99 %d cycles (total %d)\n"
      (Plim_telemetry.Histogram.p50 lat)
      (Plim_telemetry.Histogram.p90 lat)
      (Plim_telemetry.Histogram.p99 lat)
      s.Plim_serve.Server.total_cycles;
    (match geometry with
    | None -> ()
    | Some grid ->
      let gl = Plim_serve.Server.group_latency server in
      Printf.printf
        "geometry      : %s grid, groups p50 %d / p90 %d / p99 %d (total %d)\n"
        (Geometry.to_string grid)
        (Plim_telemetry.Histogram.p50 gl)
        (Plim_telemetry.Histogram.p90 gl)
        (Plim_telemetry.Histogram.p99 gl)
        s.Plim_serve.Server.total_groups);
    Printf.printf "fleet         : %d retired, %d spares activated, wear gini %.4f, \
                   max/mean %.2f\n"
      s.Plim_serve.Server.retired_shards s.Plim_serve.Server.spare_activations
      skew.Wear.gini skew.Wear.max_mean;
    List.iter
      (fun (id, status, writes) ->
        Printf.printf "  shard %d     : %-7s %d writes\n" id
          (Plim_serve.Shard.status_name status)
          writes)
      (Plim_serve.Server.shard_statuses server)
  end;
  if s.Plim_serve.Server.incorrect > 0 then exit 1

let serve_cmd =
  let requests =
    Arg.(value & opt non_negative_int 200
         & info [ "requests" ] ~docv:"N" ~doc:"Sampled requests after warm-up.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"Request-mix seed; the request stream is a pure function of it.")
  in
  let batch =
    Arg.(value & opt positive_int 32
         & info [ "batch" ] ~docv:"N"
             ~doc:"Scheduler batch size (affects scheduling granularity only, \
                   never results).")
  in
  let inject =
    Arg.(value & opt fault_spec_conv Fault_model.none
         & info [ "inject" ] ~docv:"SPEC"
             ~doc:"Fault injection spec (see $(b,plimc faults)); each shard \
                   derives its own fault seed from it.")
  in
  let endurance =
    Arg.(value & opt (some int) None
         & info [ "endurance" ] ~docv:"E"
             ~doc:"Per-cell write budget; worn-out cells become stuck-at faults.")
  in
  let no_verify =
    Arg.(value & flag
         & info [ "no-verify" ]
             ~doc:"Disable write-verify (faults then go undetected).")
  in
  let no_check =
    Arg.(value & flag
         & info [ "no-check" ]
             ~doc:"Skip the fault-free reference run that validates outputs.")
  in
  let retire =
    Arg.(value & opt_all int []
         & info [ "force-retire" ] ~docv:"ID"
             ~doc:"Administratively retire shard $(docv) halfway through the \
                   stream (repeatable) — the spare-activation drill.")
  in
  let jobs =
    jobs_arg ~default:1
      ~doc:"Serve on $(docv) domains.  Responses, counters and fleet \
            wear are byte-identical at every $(docv)."
  in
  let wear_json =
    Arg.(value & opt (some string) None
         & info [ "wear-json" ] ~docv:"FILE"
             ~doc:"Write per-shard wear heatmaps as a plim-serve-fleet/v1 JSON \
                   document to $(docv).")
  in
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit the plim-serve/v1 result row instead of text.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile-and-execute service core: replay a seeded request mix \
          (Zipfian program popularity, hot/cold input skew) against a fleet of \
          persistent crossbar shards with a digest-keyed compile cache, \
          least-worn placement, write-verify repair and online shard \
          retirement."
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 on success; 1 if any execution produced incorrect outputs; 2 \
               on usage errors." ])
    Term.(
      const serve_run $ obs_term $ mix_sources_arg $ requests $ seed
      $ fleet_term Plim_serve.Server.default_config $ batch $ zipf_arg $ hot_arg
      $ hot_pool_arg $ compile_ratio_arg () $ pipeline_term $ geometry_arg $ inject
      $ endurance $ no_verify $ no_check $ retire $ jobs $ wear_json $ json)

let horizon_run obs wm sample_every max_epochs capacity_floor epoch_seconds
    project seed hot hot_pool jobs json =
  obs @@ fun () ->
  let module H = Plim_serve.Horizon in
  let mix =
    Plim_serve.Workload.mix_of_suite ~zipf:wm.wm_zipf ~hot_fraction:hot ~hot_pool
      ~compile_ratio:wm.wm_compile_ratio
      (mix_specs ~cmd:"horizon" wm.wm_sources)
  in
  let base = wm.wm_config in
  let cfg =
    { base with
      H.server = { base.H.server with Plim_serve.Server.seed };
      mix;
      sample_every;
      max_epochs;
      capacity_floor;
      epoch_seconds;
      project_endurance = project }
  in
  let cells =
    with_jobs jobs (fun pool ->
        H.grid ?pool cfg ~strategies:wm.wm_strategies ~fault_rates:wm.wm_rates)
  in
  if json then
    List.iter (fun (_, _, r) -> print_endline (Json.write (H.row_json r))) cells
  else begin
    Printf.printf
      "horizon: endurance %.3g writes/cell, epochs of %d requests, sampled \
       every %g, projecting to %.0e\n"
      cfg.H.endurance cfg.H.epoch_requests sample_every project;
    Printf.printf "%-18s %6s %10s %10s %11s %11s %9s %5s\n" "strategy" "rate"
      "ttff" "half-life" "proj-ttff" "proj-half" "capacity" "dead";
    let fmt_opt = function Some e -> Printf.sprintf "%.5g" e | None -> "-" in
    let proj r = function
      | Some e ->
        Printf.sprintf "%.3gy" (H.years_of r e *. r.H.r_project_factor)
      | None -> "-"
    in
    List.iter
      (fun (_, rate, r) ->
        Printf.printf "%-18s %6g %10s %10s %11s %11s %9.2f %5d\n"
          (H.strategy_name r.H.r_strategy)
          rate (fmt_opt r.H.r_ttff) (fmt_opt r.H.r_half_life)
          (proj r r.H.r_ttff) (proj r r.H.r_half_life) r.H.r_final_capacity
          r.H.r_dead_shards)
      cells
  end

let horizon_cmd =
  let sample_every =
    Arg.(value & opt positive_float 2500.0
         & info [ "sample-every" ] ~docv:"N"
             ~doc:"Epochs between really-executed sampled epochs.")
  in
  let max_epochs =
    Arg.(value & opt positive_float 40_000.0
         & info [ "max-epochs" ] ~docv:"N" ~doc:"Hard epoch horizon.")
  in
  let capacity_floor =
    Arg.(value & opt unit_interval 0.35
         & info [ "capacity-floor" ] ~docv:"F"
             ~doc:"Stop when the alive-shard fraction drops below $(docv).")
  in
  let epoch_seconds =
    Arg.(value & opt float 60.0
         & info [ "epoch-seconds" ] ~docv:"S"
             ~doc:"Wall-clock seconds one epoch represents.")
  in
  let project =
    Arg.(value & opt positive_float 1e10
         & info [ "project" ] ~docv:"E"
             ~doc:"Real device endurance the projected-years columns rescale \
                   to.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"S"
             ~doc:"Campaign seed; every number in the output is a pure \
                   function of it.")
  in
  let jobs =
    jobs_arg ~default:1
      ~doc:"Run grid cells on $(docv) domains; results are \
            byte-identical at every $(docv)."
  in
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one plim-horizon/v1 row per grid cell instead of text.")
  in
  Cmd.v
    (Cmd.info "horizon"
       ~doc:
         "Accelerated-time device-lifetime campaigns: stream epochs of a \
          seeded request mix through the serve fleet, fast-forward wear \
          between sampled epochs via per-shard write-rate extrapolation, and \
          report time-to-first-device-death and capacity half-life per \
          endurance strategy (none, Start-Gap, WoLFRaM remap, or both \
          composed) across a fault-rate grid."
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 on success; 2 on usage errors." ])
    Term.(
      const horizon_run $ obs_term $ wear_model_term () $ sample_every
      $ max_epochs $ capacity_floor $ epoch_seconds $ project $ seed $ hot_arg
      $ hot_pool_arg $ jobs $ json)

let certify_run wm json check_file =
  let module H = Plim_serve.Horizon in
  let module C = Plim_certify in
  let module Json = Plim_telemetry.Json in
  let mix =
    Plim_serve.Workload.mix_of_suite ~zipf:wm.wm_zipf
      ~compile_ratio:wm.wm_compile_ratio
      (mix_specs ~cmd:"certify" wm.wm_sources)
  in
  let cfg = { wm.wm_config with H.mix } in
  let cells =
    C.grid cfg ~strategies:wm.wm_strategies ~fault_rates:wm.wm_rates
  in
  (match check_file with
  | None ->
    if json then
      List.iter (fun (_, _, c) -> print_endline (Json.write (C.row_json c))) cells
    else begin
      Printf.printf
        "certify: endurance %.3g writes/cell, epochs of %d requests, \
         compile-ratio %g\n"
        cfg.H.endurance cfg.H.epoch_requests wm.wm_compile_ratio;
      Printf.printf "%-18s %6s %8s %9s %21s %21s %9s\n" "strategy" "rate"
        "writes" "rate-ub" "ttff [lo,hi]" "half-life [lo,hi]" "capacity0";
      List.iter
        (fun (_, rate, c) ->
          Printf.printf "%-18s %6g %8g %9.4g [%9.5g,%9.5g] [%9.5g,%9.5g] %9.2f\n"
            (H.strategy_name c.C.c_strategy)
            rate c.C.c_writes.C.upper c.C.c_rate_cell_upper
            c.C.c_ttff.C.lower c.C.c_ttff.C.upper c.C.c_half_life.C.lower
            c.C.c_half_life.C.upper c.C.c_capacity0)
        cells
    end
  | Some file ->
    (* a file that cannot be read or parsed is a usage error (exit 2),
       never a row escaping its bracket (exit 1) *)
    let rows =
      match C.read_rows file with
      | Ok rows -> rows
      | Error e ->
        Printf.eprintf "plimc certify: %s\n" e;
        exit 2
    in
    if rows = [] then begin
      Printf.eprintf "plimc certify: %s contains no rows to check\n" file;
      exit 1
    end;
    let failures = ref 0 in
    List.iter
      (fun row ->
        match C.check_row_json cells row with
        | Ok lbl -> Printf.printf "ok   %s: inside the static bracket\n" lbl
        | Error e ->
          incr failures;
          Printf.printf "FAIL %s\n" e)
      rows;
    if !failures > 0 then begin
      Printf.eprintf "%d row(s) escape their certificates\n" !failures;
      exit 1
    end)

let certify_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Emit one plim-cert/v1 row per grid cell instead of text.")
  in
  let check_file =
    Arg.(value & opt (some file) None
         & info [ "check" ] ~docv:"FILE"
             ~doc:"Check every plim-horizon/v1 row in $(docv) (a plim-bench \
                   results file or $(b,plimc horizon --json) output) against \
                   its static bracket; exit 1 if any row escapes.")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Static endurance certification: derive sound lower/upper bounds on \
          time-to-first-failure and capacity half-life for every (strategy, \
          fault-rate) grid cell from the compiled instruction streams and \
          the workload spec alone — no simulation — and optionally gate \
          simulated plim-horizon/v1 rows against their brackets."
       ~man:
         [ `S Manpage.s_exit_status;
           `P "0 on success; 1 when $(b,--check) finds a row outside its \
               bracket (or an unknown benchmark); 2 on usage errors." ])
    Term.(
      const certify_run
      $ wear_model_term
          ~compile_ratio_note:
            " Any positive value makes zero-wear epochs possible, so upper \
             lifetime bounds become unbounded (-1)."
          ()
      $ json $ check_file)

let selftest_run () =
  let failures = ref 0 in
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      List.iter
        (fun config ->
          let r = Pipeline.compile config g in
          match Verify.check_random ~trials:4 ~seed:0xD0C g r.Pipeline.program with
          | Ok () -> Printf.printf "ok   %-12s %s\n%!" spec.Suite.name (Pipeline.config_name config)
          | Error e ->
            incr failures;
            Printf.printf "FAIL %-12s %s: %s\n%!" spec.Suite.name
              (Pipeline.config_name config) e)
        [ Pipeline.naive; Pipeline.endurance_full;
          Pipeline.with_cap 10 Pipeline.endurance_full ])
    Suite.small_suite;
  if !failures > 0 then begin
    Printf.eprintf "%d failures\n" !failures;
    exit 1
  end;
  print_endline "all self-tests passed"

let selftest_cmd =
  Cmd.v
    (Cmd.info "selftest"
       ~doc:
         "Compile the small benchmark suite under several configurations and verify \
          each program on the crossbar machine.")
    Term.(const selftest_run $ const ())

let main =
  Cmd.group
    (Cmd.info "plimc" ~version:"1.0.0"
       ~doc:"Endurance-aware compiler for the PLiM logic-in-memory computer")
    [ list_cmd; compile_cmd; stats_cmd; run_cmd; export_cmd; faults_cmd; fuzz_cmd;
      lint_cmd; report_cmd; profile_cmd; serve_cmd; horizon_cmd; certify_cmd;
      selftest_cmd ]

(* Usage problems — unknown subcommands, bad flags, unparsable option
   values — exit 2 uniformly across every subcommand (cmdliner's default
   would be 124); internal exceptions keep cmdliner's 125. *)
let () =
  match Cmd.eval_value main with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) -> exit 2
  | Error `Exn -> exit 125
