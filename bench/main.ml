(* Reproduction harness: regenerates every table of the paper's evaluation
   (Section IV) plus the experiments built on top of the compiler.  Every
   phase's --deterministic output is pinned by test/expected/bench-small.out
   (small suite) or tables-full.out (Tables I-III, full suite).

     dune exec bench/main.exe                 -- tables I, II, III + summary
     dune exec bench/main.exe -- table1       -- write traffic (Table I)
     dune exec bench/main.exe -- table2       -- #I / #R      (Table II)
     dune exec bench/main.exe -- table3       -- write caps   (Table III)
     dune exec bench/main.exe -- summary      -- paper-vs-measured averages
     dune exec bench/main.exe -- ablations    -- design-choice ablations
     dune exec bench/main.exe -- faulttol     -- fault-injection degradation sweep
     dune exec bench/main.exe -- all          -- everything

   A failed self-check (fault-free verification, capacity monotonicity,
   the horizon lifetime ordering, the certificate and geometry gates)
   exits 1; an unknown phase or flag exits 2. *)

module Mig = Plim_mig.Mig
module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats
module Lifetime = Plim_stats.Lifetime
module Alloc = Plim_core.Alloc
module Select = Plim_core.Select
module Profile = Plim_obs.Profile
module Fault_model = Plim_fault.Fault_model
module Campaign = Plim_machine.Campaign
module Par = Plim_par
module Wear = Plim_telemetry.Wear
module Hgram = Plim_telemetry.Histogram
module Json = Plim_telemetry.Json
module Geometry = Plim_geometry

let caps = [ 10; 20; 50; 100 ]

(* ------------------------------------------------------------------ *)
(* Execution knobs shared by every subcommand: the domain pool behind
   [-j N], the table suite, and the determinism switches.  Tables and
   latest.json are byte-identical at every -j level; --deterministic
   additionally zeroes the two wall-clock fields of latest.json
   (generated_at, phase totals) so whole files diff clean. *)

let pool : Par.t option ref = ref None

let pmap f xs = match !pool with Some p -> Par.map p ~f xs | None -> List.map f xs

let pool_jobs () = match !pool with Some p -> Par.jobs p | None -> 1

let deterministic = ref false

let results_path = ref "bench/results/latest.json"

let suite = ref Suite.all

(* a failed self-check: the message goes to stderr and the run exits 1 *)
let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

(* ------------------------------------------------------------------ *)
(* Table campaign: per benchmark, rewrite twice and compile once per
   configuration; every table reads these results, which the pool
   returns in suite order. *)

type bench_results = {
  spec : Suite.spec;
  naive : Pipeline.result;
  dac16 : Pipeline.result;
  min_write : Pipeline.result;
  endurance_rewrite : Pipeline.result;
  endurance_full : Pipeline.result;
  capped : (int * Pipeline.result) list;
}

let compute_benchmark spec =
  let g = Suite.build_cached spec in
  let g1 = Recipe.run Recipe.Algorithm1 ~effort:5 g in
  let g2 = Recipe.run Recipe.Algorithm2 ~effort:5 g in
  let base recipe_graph config = Pipeline.compile_rewritten config recipe_graph in
  { spec;
    naive = base g Pipeline.naive;
    dac16 = base g1 Pipeline.dac16;
    min_write = base g1 Pipeline.min_write;
    endurance_rewrite = base g2 Pipeline.endurance_rewrite;
    endurance_full = base g2 Pipeline.endurance_full;
    capped =
      (* nested per-cap sweep: the helping join makes this safe on the
         same pool that runs the per-benchmark fan-out *)
      pmap
        (fun cap -> (cap, base g2 (Pipeline.with_cap cap Pipeline.endurance_full)))
        caps }

let all_results () =
  let t0 = Unix.gettimeofday () in
  let results =
    pmap
      (fun spec ->
        Printf.eprintf "[bench] %s...\n%!" spec.Suite.name;
        Profile.span ("bench." ^ spec.Suite.name) (fun () -> compute_benchmark spec))
      !suite
  in
  Printf.eprintf "[bench] table campaign wall-clock: %.2f s (-j %d, %d benchmarks)\n%!"
    (Unix.gettimeofday () -. t0)
    (pool_jobs ()) (List.length results);
  results

let impr baseline v = Stats.improvement_pct ~baseline v

(* 0.0 on [], never 0/0 = nan: an empty benchmark selection must not leak
   NaN into the AVG rows or latest.json *)
let avg = Stats.mean_list

(* ------------------------------------------------------------------ *)
(* Table I: write-traffic statistics of the endurance techniques. *)

let summary (r : Pipeline.result) = r.Pipeline.write_summary

let table1 results =
  Printf.printf
    "\nTABLE I — write traffic (min/max and STDEV of per-device write counts)\n";
  Printf.printf "%-10s %-9s| %-27s| %-27s| %-27s| %-27s| %-27s\n" "benchmark" "PI/PO"
    "naive" "PLiM compiler [21]" "min-write strategy" "+endurance rewriting"
    "+endurance compilation";
  let acc = Array.make 5 [] in
  List.iter
    (fun r ->
      let cols =
        [ summary r.naive; summary r.dac16; summary r.min_write;
          summary r.endurance_rewrite; summary r.endurance_full ]
      in
      let base = (List.nth cols 0).Stats.stdev in
      Printf.printf "%-10s %4d/%-4d" r.spec.Suite.name r.spec.Suite.pi r.spec.Suite.po;
      List.iteri
        (fun i s ->
          let im = impr base s.Stats.stdev in
          acc.(i) <- (s, im) :: acc.(i);
          if i = 0 then
            Printf.printf "| %4d/%-5d %7.2f      -  " s.Stats.min s.Stats.max s.Stats.stdev
          else
            Printf.printf "| %4d/%-5d %7.2f %5.1f%%  " s.Stats.min s.Stats.max s.Stats.stdev
              im)
        cols;
      print_newline ())
    results;
  Printf.printf "%-10s %9s" "AVG" "";
  Array.iteri
    (fun i col ->
      let stdev = avg (List.map (fun (s, _) -> s.Stats.stdev) col) in
      let im = avg (List.map snd col) in
      if i = 0 then Printf.printf "| %10s %7.2f      -  " "" stdev
      else Printf.printf "| %10s %7.2f %5.1f%%  " "" stdev im)
    acc;
  print_newline ();
  Printf.printf
    "(paper AVG STDEV: 48.49 | 29.33 / 31.0%% | 22.48 / 57.1%% | 15.07 / 64.4%% | 13.27 / 72.2%%)\n"

(* ------------------------------------------------------------------ *)
(* Table II: instruction and device counts. *)

let table2 results =
  Printf.printf "\nTABLE II — instructions (#I) and RRAM devices (#R)\n";
  Printf.printf "%-10s %9s  %18s  %20s  %24s\n" "benchmark" "PI/PO" "naive"
    "endurance rewriting" "endurance rewr.+comp.";
  Printf.printf "%-10s %9s  %9s %8s  %11s %8s  %15s %8s\n" "" "" "#I" "#R" "#I" "#R" "#I"
    "#R";
  let sums = Array.make 6 0 in
  List.iter
    (fun r ->
      let i0 = Program.length r.naive.Pipeline.program
      and r0 = Program.num_cells r.naive.Pipeline.program
      and i1 = Program.length r.endurance_rewrite.Pipeline.program
      and r1 = Program.num_cells r.endurance_rewrite.Pipeline.program
      and i2 = Program.length r.endurance_full.Pipeline.program
      and r2 = Program.num_cells r.endurance_full.Pipeline.program in
      List.iteri (fun k v -> sums.(k) <- sums.(k) + v) [ i0; r0; i1; r1; i2; r2 ];
      Printf.printf "%-10s %4d/%-4d  %9d %8d  %11d %8d  %15d %8d\n" r.spec.Suite.name
        r.spec.Suite.pi r.spec.Suite.po i0 r0 i1 r1 i2 r2)
    results;
  (* max 1: an empty selection prints a zero AVG row instead of NaN *)
  let n = float_of_int (max 1 (List.length results)) in
  Printf.printf "%-10s %9s  %9.1f %8.1f  %11.1f %8.1f  %15.1f %8.1f\n" "AVG" ""
    (float_of_int sums.(0) /. n)
    (float_of_int sums.(1) /. n)
    (float_of_int sums.(2) /. n)
    (float_of_int sums.(3) /. n)
    (float_of_int sums.(4) /. n)
    (float_of_int sums.(5) /. n);
  Printf.printf
    "(paper AVG: #I 33814.2 / 21373.0 / 21479.4 ; #R 1264.4 / 957.6 / 1034.5)\n"

(* ------------------------------------------------------------------ *)
(* Table III: the maximum write count strategy, caps 10/20/50/100. *)

let table3 results =
  Printf.printf
    "\nTABLE III — full endurance management under write caps (dash: unchanged)\n";
  Printf.printf "%-10s %9s" "benchmark" "PI/PO";
  List.iter (fun cap -> Printf.printf " | cap%-3d %8s %6s %7s" cap "#I" "#R" "STDEV") caps;
  print_newline ();
  let sums = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Printf.printf "%-10s %4d/%-4d" r.spec.Suite.name r.spec.Suite.pi r.spec.Suite.po;
      let prev = ref None in
      List.iter
        (fun (cap, res) ->
          let p = res.Pipeline.program in
          let stats = (Program.length p, Program.num_cells p, (summary res).Stats.stdev) in
          let ci, cr, cs =
            Hashtbl.find_opt sums cap |> Option.value ~default:(0, 0, 0.0)
          in
          let i, rr, s = stats in
          Hashtbl.replace sums cap (ci + i, cr + rr, cs +. s);
          let unchanged = match !prev with Some x -> x = stats | None -> false in
          prev := Some stats;
          if unchanged then Printf.printf " |     %9s %6s %7s" "-" "-" "-"
          else Printf.printf " |     %9d %6d %7.2f" i rr s)
        r.capped;
      print_newline ())
    results;
  let n = float_of_int (max 1 (List.length results)) in
  Printf.printf "%-10s %9s" "AVG" "";
  List.iter
    (fun cap ->
      let i, r, s = Hashtbl.find_opt sums cap |> Option.value ~default:(0, 0, 0.0) in
      Printf.printf " |     %9.1f %6.1f %7.2f" (float_of_int i /. n) (float_of_int r /. n)
        (s /. n))
    caps;
  print_newline ();
  Printf.printf
    "(paper AVG: cap10 22285.5/2559.3/1.55  cap20 21661.9/1568.1/2.66  cap50 21507.6/1173.8/4.27  cap100 21488.5/1091.5/6.47)\n"

(* ------------------------------------------------------------------ *)
(* Summary: the headline claims of the abstract. *)

let summary_table results =
  Printf.printf "\nSUMMARY — headline claims (paper vs this reproduction)\n";
  let capped_of r cap = List.assoc cap r.capped in
  let stdev_impr_cap100 =
    avg
      (List.map
         (fun r ->
           impr (summary r.naive).Stats.stdev (summary (capped_of r 100)).Stats.stdev)
         results)
  in
  let i_impr_cap100 =
    avg
      (List.map
         (fun r ->
           impr
             (float_of_int (Program.length r.naive.Pipeline.program))
             (float_of_int (Program.length (capped_of r 100).Pipeline.program)))
         results)
  in
  let r_impr_cap100 =
    avg
      (List.map
         (fun r ->
           impr
             (float_of_int (Program.num_cells r.naive.Pipeline.program))
             (float_of_int (Program.num_cells (capped_of r 100).Pipeline.program)))
         results)
  in
  let stdev_impr_cap10 =
    avg
      (List.map
         (fun r ->
           impr (summary r.naive).Stats.stdev (summary (capped_of r 10)).Stats.stdev)
         results)
  in
  let full_impr =
    avg
      (List.map
         (fun r ->
           impr (summary r.naive).Stats.stdev (summary r.endurance_full).Stats.stdev)
         results)
  in
  Printf.printf "  %-58s %9s %9s\n" "claim" "paper" "measured";
  Printf.printf "  %-58s %8.2f%% %8.2f%%\n"
    "STDEV reduction, full endurance mgmt + cap 100 (abstract)" 86.65 stdev_impr_cap100;
  Printf.printf "  %-58s %8.2f%% %8.2f%%\n" "instruction reduction at cap 100 (abstract)"
    36.45 i_impr_cap100;
  Printf.printf "  %-58s %8.2f%% %8.2f%%\n" "RRAM device reduction at cap 100 (abstract)"
    13.67 r_impr_cap100;
  Printf.printf "  %-58s %8.2f%% %8.2f%%\n" "STDEV reduction at cap 10 (Section IV)" 96.8
    stdev_impr_cap10;
  Printf.printf "  %-58s %8.2f%% %8.2f%%\n"
    "STDEV reduction, uncapped (Table I last column)" 72.17 full_impr;
  let lifetime_gain =
    avg
      (List.map
         (fun r ->
           let life res =
             (Lifetime.estimate ~endurance:1e10
                (Program.static_write_counts res.Pipeline.program))
               .Lifetime.executions_to_first_failure
           in
           life (capped_of r 100) /. life r.naive)
         results)
  in
  Printf.printf
    "  derived: executions-to-first-failure gain at cap 100 (1e10 endurance): %.1fx average\n"
    lifetime_gain

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 4). *)

let ablation_subset = [ "sin"; "cavlc"; "i2c"; "router"; "adder" ]

let ablations () =
  (* each subset circuit is rewritten once (Algorithm 2) and recompiled
     under every variant of ablations A-C *)
  let graphs =
    List.map
      (fun name ->
        (name, Recipe.run Recipe.Algorithm2 ~effort:5 (Suite.build_cached (Suite.find name))))
      ablation_subset
  in
  (* one stdev column per (heading, width, config) *)
  let ablation title columns =
    Printf.printf "\n%s\n%-10s" title "benchmark";
    List.iter (fun (heading, w, _) -> Printf.printf " %*s" w heading) columns;
    print_newline ();
    List.iter
      (fun (name, g) ->
        Printf.printf "%-10s" name;
        List.iter
          (fun (_, w, config) ->
            Printf.printf " %*.2f" w
              (Pipeline.compile_rewritten config g).Pipeline.write_summary.Stats.stdev)
          columns;
        print_newline ())
      graphs
  in
  let ef = Pipeline.endurance_full in
  let alloc a = { ef with Pipeline.allocation = a } in
  let select sel = { ef with Pipeline.selection = sel } in
  ablation "ABLATION A — allocation policy (Algorithm 2 + level-first fixed)"
    [ ("lifo", 12, alloc Alloc.Lifo); ("fifo", 12, alloc Alloc.Fifo);
      ("min-write", 12, alloc Alloc.Min_write) ];
  ablation "ABLATION B — node selection (Algorithm 2 + min-write fixed)"
    [ ("in-order", 12, select Select.In_order);
      ("release-first", 14, select Select.Release_first);
      ("level-first", 12, select Select.Level_first) ];
  ablation "ABLATION C — destination tie-break by write count (beyond the paper)"
    [ ("paper", 12, { ef with Pipeline.dest_min_write = false });
      ("dest-min-write", 16, { ef with Pipeline.dest_min_write = true }) ];
  Printf.printf "\nABLATION D — rewriting effort sweep (Algorithm 2, benchmark: sin)\n";
  Printf.printf "%-8s %10s %10s %10s\n" "effort" "MIG size" "#I" "STDEV";
  let g = Suite.build_cached (Suite.find "sin") in
  List.iter
    (fun effort ->
      let g' = Recipe.run Recipe.Algorithm2 ~effort g in
      let r = Pipeline.compile_rewritten Pipeline.endurance_full g' in
      Printf.printf "%-8d %10d %10d %10.2f\n" effort (Mig.size g')
        (Program.length r.Pipeline.program)
        r.Pipeline.write_summary.Stats.stdev)
    [ 0; 1; 2; 3; 5 ]

(* ------------------------------------------------------------------ *)
(* Section II quantified: IMPLY-based logic-in-memory vs RM3.  The paper
   motivates RM3 by the write concentration of IMP's work devices. *)

let section2 () =
  Printf.printf
    "\nSECTION II — IMPLY-based synthesis vs RM3 (write concentration argument)\n";
  Printf.printf "%-12s | %28s | %28s | %28s\n" "benchmark" "IMP (lifo reuse)"
    "IMP + min-write" "RM3 compiler + min-write";
  Printf.printf "%-12s | %8s %6s %5s %7s | %28s | %8s %6s %5s %7s\n" "" "#I" "#R" "max"
    "stdev" "max / stdev" "#I" "#R" "max" "stdev";
  List.iter
    (fun name ->
      let spec = Suite.find name in
      let g = spec.Suite.build () in
      let imp = Plim_imp.Imp.compile g in
      let imp_min = Plim_imp.Imp.compile ~strategy:Alloc.Min_write g in
      let rm3 = Pipeline.compile Pipeline.min_write g in
      let si = Stats.summarize (Plim_imp.Imp.static_write_counts imp) in
      let sm = Stats.summarize (Plim_imp.Imp.static_write_counts imp_min) in
      let sr = rm3.Pipeline.write_summary in
      Printf.printf "%-12s | %8d %6d %5d %7.2f | %16d / %9.2f | %8d %6d %5d %7.2f\n" name
        (Plim_imp.Imp.length imp)
        (Plim_imp.Imp.num_cells imp)
        si.Stats.max si.Stats.stdev sm.Stats.max sm.Stats.stdev
        (Program.length rm3.Pipeline.program)
        (Program.num_cells rm3.Pipeline.program)
        sr.Stats.max sr.Stats.stdev)
    [ "adder8"; "multiplier8"; "div8"; "voter15"; "dec4"; "rc_small" ];
  Printf.printf
    "RM3 shares writes over three operands; IMP rewrites only its work devices\n\
     (Section II: 'higher write traffic in the memory cell storing the output').\n"

(* ------------------------------------------------------------------ *)
(* Architectural wear levelling (Start-Gap, ref [8]) vs compiler-level
   endurance management. *)

let wearlevel () =
  Printf.printf
    "\nWEAR LEVELLING — Start-Gap rotation [8] vs endurance-aware compilation\n";
  Printf.printf "(per-physical-cell stats after 100 executions; psi = 100)\n";
  Printf.printf "%-12s %26s %26s %26s\n" "benchmark" "naive" "naive + start-gap"
    "endurance-full + cap 10";
  List.iter
    (fun name ->
      let spec = Suite.find name in
      let g = spec.Suite.build () in
      let executions = 100 in
      let stats_of counts = Stats.summarize counts in
      let scale counts = Array.map (fun w -> w * executions) counts in
      let naive = Pipeline.compile Pipeline.naive g in
      let balanced = Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g in
      let naive_counts = Program.static_write_counts naive.Pipeline.program in
      let rotated =
        Plim_rram.Leveling.(replay ~psi:100 Start_gap ~executions naive_counts)
      in
      let s0 = stats_of (scale naive_counts) in
      let s1 = stats_of rotated in
      let s2 =
        stats_of (scale (Program.static_write_counts balanced.Pipeline.program))
      in
      let pr s = Printf.sprintf "max %6d stdev %8.1f" s.Stats.max s.Stats.stdev in
      Printf.printf "%-12s %26s %26s %26s\n" name (pr s0) (pr s1) (pr s2))
    [ "adder8"; "multiplier8"; "sqrt8"; "rc_small" ];
  Printf.printf
    "Start-Gap levels wear across executions at ~1%% write overhead but cannot\n\
     fix intra-program imbalance faster than its rotation period; the compiler\n\
     bounds every device within a single execution.  The two compose.\n"

(* ------------------------------------------------------------------ *)
(* Dynamic wear-out campaigns: empirical executions-to-first-failure on
   an endurance-limited crossbar, vs the static prediction. *)

let lifetime_bench () =
  Printf.printf
    "\nLIFETIME — simulated executions to first device failure (endurance 10000)\n";
  Printf.printf "%-12s %-24s %10s %10s %12s %10s\n" "benchmark" "configuration" "measured"
    "predicted" "+start-gap" "energy/run";
  let endurance = 10_000 in
  List.iter
    (fun name ->
      let spec = Suite.find name in
      let g = spec.Suite.build () in
      List.iter
        (fun config ->
          let r = Pipeline.compile config g in
          let p = r.Pipeline.program in
          let max_writes = Array.fold_left max 1 (Program.static_write_counts p) in
          let predicted = endurance / max_writes in
          let measured =
            (Plim_machine.Campaign.run_until_failure ~endurance ~max_executions:100_000 p)
              .Plim_machine.Campaign.executions_completed
          in
          let rotated =
            (Plim_machine.Campaign.run_until_failure
               ~strategy:Plim_rram.Leveling.Start_gap ~psi:100 ~endurance
               ~max_executions:100_000 p)
              .Plim_machine.Campaign.executions_completed
          in
          let inputs = Array.make (Array.length p.Program.pi_cells) false in
          let _, xbar, run_stats = Plim_machine.Plim_controller.run p ~inputs in
          let energy = Plim_machine.Energy.of_run xbar run_stats in
          Printf.printf "%-12s %-24s %10d %10d %12d %8.1f pJ\n%!" name
            (Pipeline.config_name config) measured predicted rotated
            energy.Plim_machine.Energy.total_pj)
        [ Pipeline.naive; Pipeline.endurance_full;
          Pipeline.with_cap 10 Pipeline.endurance_full ])
    [ "adder8"; "multiplier8"; "rc_small" ];
  Printf.printf
    "Static prediction = endurance / max static writes; the campaign executes the\n\
     program on a failing crossbar and matches it exactly.  Start-Gap rotation\n\
     layered on top composes with compilation, with the largest relative gain on\n\
     the unbalanced naive programs.\n"

(* ------------------------------------------------------------------ *)
(* Fault tolerance: graceful degradation under stuck-at injection and
   wear-out, behind write-verify + spare-line remapping (Plim_fault).
   JSON rows accumulate here and land in bench/results/latest.json. *)

let faulttol_rows : Json.t list ref = ref []

(* one faulttol row: the campaign's identifying [head] fields, its
   write-verify counters ([extra] rides after them) and its outcome *)
let faulttol_row ?(extra = []) (d : Campaign.degradation) head =
  Json.Obj
    (head
    @ [ ("detections", Json.Int d.Campaign.detections); ("remaps", Int d.Campaign.remaps);
        ("verify_reads", Int d.Campaign.verify_reads);
        ("retries", Int d.Campaign.retries) ]
    @ extra
    @ [ ("executions", Json.Int d.Campaign.executions);
        ("correct", Int d.Campaign.correct); ("incorrect", Int d.Campaign.incorrect);
        ("capacity", Num d.Campaign.final_capacity);
        ("spares_remaining", Int d.Campaign.spares_remaining);
        ("survived", Bool (d.Campaign.ended = Campaign.Max_executions)) ])

let faulttol () =
  let rates = [ 0.0; 0.005; 0.01; 0.02; 0.05 ] in
  let budgets = [ 0; 8; 64 ] in
  let execs = 40 in
  Printf.printf
    "\nFAULT TOLERANCE — graceful degradation under stuck-at injection\n";
  Printf.printf
    "(write-verify campaigns, %d executions each; inj = faults injected across the\n\
    \ physical array incl. spares; capacity = surviving fraction; ok = executions\n\
    \ whose outputs matched the MIG oracle / executions completed)\n"
    execs;
  Printf.printf "%-10s %6s" "benchmark" "rate";
  List.iter
    (fun sp -> Printf.printf " | %-21s" (Printf.sprintf "spares=%d inj/cap/ok" sp))
    budgets;
  print_newline ();
  let mono_violations = ref 0 in
  List.iter
    (fun name ->
      let spec = Suite.find name in
      let g = Suite.build_cached spec in
      let r = Pipeline.compile Pipeline.endurance_full g in
      let p = r.Pipeline.program in
      (match Verify.check_random ~trials:4 ~seed:0xFA g p with
      | Ok () -> ()
      | Error e -> fail "faulttol: %s: fault-free verification FAILED: %s" name e);
      (* every (rate, spares) campaign is independent; the sweep fans out
         on the pool and returns cells in grid order, so printing, the
         monotonicity self-check and the JSON rows below are identical at
         every -j level *)
      let cells =
        Campaign.sweep_degraded ?pool:!pool ~seed:0xBE57 ~max_executions:execs
          ~verify:true ~oracle:(Mig.eval g)
          ~fault_spec_of:(Plim_serve.Horizon.spec_of_rate ~seed:0xFA017)
          ~rates ~spare_budgets:budgets p
      in
      let cell = Array.of_list cells in
      let nb = List.length budgets in
      let prev_cap = Hashtbl.create 4 in
      List.iteri
        (fun ri rate ->
          Printf.printf "%-10s %6.3f" name rate;
          List.iteri
            (fun si spares ->
              let d = cell.((ri * nb) + si) in
              (* coupled-threshold sampling: for a fixed physical array size,
                 a higher rate injects a superset of the faults, so capacity
                 must be non-increasing down each column *)
              (match Hashtbl.find_opt prev_cap spares with
              | Some c when d.Campaign.final_capacity > c +. 1e-9 ->
                incr mono_violations
              | _ -> ());
              Hashtbl.replace prev_cap spares d.Campaign.final_capacity;
              Printf.printf " | %4d %6.4f %3d/%-3d" d.Campaign.injected
                d.Campaign.final_capacity d.Campaign.correct d.Campaign.executions;
              faulttol_rows :=
                faulttol_row d
                  [ ("benchmark", Str name); ("rate", Num rate); ("spares", Int spares);
                    ("injected", Int d.Campaign.injected) ]
                :: !faulttol_rows)
            budgets;
          print_newline ())
        rates)
    [ "adder8"; "dec4"; "rc_small" ];
  if !mono_violations = 0 then
    Printf.printf
      "monotonicity: ok — higher fault rate never increased surviving capacity\n"
  else fail "faulttol: monotonicity: %d VIOLATIONS" !mono_violations;
  Printf.printf
    "\nWEAR + REPAIR — endurance 400 writes/cell, transient 1e-3 (adder8)\n";
  Printf.printf
    "(run_until_failure crashes at the first worn cell; the degraded campaign\n\
    \ detects the stuck cell by read-back and remaps it to a spare line)\n";
  let spec = Suite.find "adder8" in
  let g = Suite.build_cached spec in
  let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
  let endurance = 400 in
  let crash =
    (Campaign.run_until_failure ~endurance ~max_executions:100_000 p)
      .Campaign.executions_completed
  in
  Printf.printf "%-8s %12s %10s %8s %8s %10s\n" "spares" "executions" "vs-crash"
    "remaps" "retries" "capacity";
  Printf.printf "%-8s %12d %10s %8s %8s %10s   (run_until_failure)\n" "-" crash "1.0x"
    "-" "-" "-";
  (* each spare budget is an independent campaign: fan out, print in order *)
  let outcomes =
    pmap
      (fun spares ->
        let fault_spec = Fault_model.make ~transient:1e-3 ~seed:0x77EA () in
        ( spares,
          Campaign.run_degraded ~seed:0xBE57 ~max_executions:100_000 ~endurance
            ~spares ~verify:true ~fault_spec ~oracle:(Mig.eval g) p ))
      [ 0; 4; 16; 64 ]
  in
  List.iter
    (fun (spares, d) ->
      Printf.printf "%-8d %12d %9.1fx %8d %8d %10.4f\n" spares d.Campaign.executions
        (float_of_int d.Campaign.executions /. float_of_int (max 1 crash))
        d.Campaign.remaps d.Campaign.retries d.Campaign.final_capacity;
      faulttol_rows :=
        faulttol_row d
          ~extra:[ ("transient_failures", Int d.Campaign.transient_failures) ]
          [ ("benchmark", Str "adder8"); ("endurance", Int endurance);
            ("spares", Int spares); ("injected", Int d.Campaign.injected);
            ("worn_out", Int d.Campaign.worn_out) ]
        :: !faulttol_rows)
    outcomes

(* ------------------------------------------------------------------ *)
(* Wear trajectory: a degradation campaign sampled over time — the skew
   time series (stdev/gini/max-mean of the per-cell wear distribution)
   plus a final per-cell heatmap.  Campaign.run_degraded never touches
   the pool and its sampler is a pure function of the execution
   sequence, so this section is byte-identical at every -j level; it is
   part of the bench-j1 == bench-j4 diff gate. *)

let wear_rows : Json.t list ref = ref []

let wear () =
  Printf.printf
    "\nWEAR TRAJECTORY — skew time series of a degradation campaign\n";
  let endurance = 2_000 and execs = 400 and spares = 16 in
  Printf.printf
    "(adder8, endurance-full; endurance %d writes/cell, %d spares, transient 1e-3,\n\
    \ %d executions; write-verify detects worn cells and remaps to spares)\n"
    endurance spares execs;
  let spec = Suite.find "adder8" in
  let g = Suite.build_cached spec in
  let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
  let d =
    Campaign.run_degraded ~seed:0xBE57 ~max_executions:execs ~sample_every:20
      ~endurance ~spares ~verify:true
      ~fault_spec:(Fault_model.make ~transient:1e-3 ~seed:0x77EA ())
      ~oracle:(Mig.eval g) p
  in
  Format.printf "%a" Campaign.pp_trajectory d.Campaign.trajectory;
  Printf.printf
    "\nfinal wear heatmap (%d physical cells incl. %d spares; '@' = most worn):\n"
    (Array.length d.Campaign.final_wear)
    spares;
  print_string (Wear.heatmap d.Campaign.final_wear);
  Printf.printf
    "executions %d, %d worn out, %d remaps, capacity %.4f\n" d.Campaign.executions
    d.Campaign.worn_out d.Campaign.remaps d.Campaign.final_capacity;
  wear_rows :=
    [ Json.Obj
        [ ("benchmark", Str "adder8"); ("config", Str "endurance-full");
          ("endurance", Int endurance); ("spares", Int spares);
          ("executions", Int d.Campaign.executions); ("worn_out", Int d.Campaign.worn_out);
          ("remaps", Int d.Campaign.remaps); ("capacity", Num d.Campaign.final_capacity);
          ("trajectory", Campaign.trajectory_json d.Campaign.trajectory);
          ( "heatmap",
            Wear.heatmap_json ~label:"adder8/endurance-full" d.Campaign.final_wear ) ] ]

(* ------------------------------------------------------------------ *)
(* Serve: throughput/latency of the compile-and-execute service core
   (Plim_serve) replaying seeded request mixes against a fleet of
   persistent crossbar shards.  Latencies are simulated memory-access
   cycles (static cycles + verify overhead), so every printed number and
   JSON field except wall_s/requests_per_sec is a pure function of the
   mix seed — part of the bench-j1 == bench-j4 diff gate; wall fields
   are zeroed under --deterministic like the phase totals. *)

let serve_rows : Json.t list ref = ref []

let serve () =
  Printf.printf
    "\nSERVE — compile-and-execute service over a persistent shard fleet\n";
  let mix =
    Plim_serve.Workload.mix_of_suite ~zipf:1.1 ~hot_fraction:0.8 ~hot_pool:4
      ~compile_ratio:0.05 Suite.small_suite
  in
  Printf.printf
    "(small-suite mix: zipf 1.1 popularity, 80%% hot inputs over 4 vectors per\n\
    \ program, 5%% redundant compiles; write-verify on, outputs checked against\n\
    \ a fault-free reference; latencies in simulated memory-access cycles)\n";
  let scenarios =
    [ (* steady state: mild transient faults, nobody retires *)
      ( "steady", 240, 0x5E12,
        { Plim_serve.Server.default_config with
          Plim_serve.Server.fault_spec =
            Fault_model.make ~transient:1e-4 ~seed:0x5EED1 ();
          seed = 0x5E12 },
        [] );
      (* retirement drill: endurance wear plus two forced retirements
         halfway through — the spare shard must absorb the traffic with
         zero incorrect executions *)
      ( "retire", 240, 0x5E34,
        { Plim_serve.Server.default_config with
          Plim_serve.Server.shards = 3;
          spare_shards = 2;
          cell_spares = 16;
          endurance = Some 4_000;
          fault_spec = Fault_model.make ~transient:1e-4 ~seed:0x5EED2 ();
          seed = 0x5E34 },
        [ 0; 1 ] ) ]
  in
  Printf.printf "%-8s %8s %6s %6s %6s %5s %5s %7s %7s %8s %7s\n" "scenario"
    "requests" "hits" "miss" "execs" "rerun" "bad" "lat-p50" "lat-p99" "retired"
    "gini";
  List.iter
    (fun (label, requests, seed, cfg, retire_ids) ->
      let stream = Plim_serve.Workload.generate ~seed ~requests mix in
      let server = Plim_serve.Server.create cfg in
      let t0 = Unix.gettimeofday () in
      ignore
        (Plim_serve.Server.retire_drill ?pool:!pool server stream
           ~retire:retire_ids);
      let wall = if !deterministic then 0.0 else Unix.gettimeofday () -. t0 in
      let s = Plim_serve.Server.summary server in
      let lat = Plim_serve.Server.latency server in
      let skew = Plim_serve.Server.fleet_skew server in
      Printf.printf "%-8s %8d %6d %6d %6d %5d %5d %7d %7d %8d %7.4f\n" label
        s.Plim_serve.Server.requests s.Plim_serve.Server.cache_hits
        s.Plim_serve.Server.cache_misses s.Plim_serve.Server.executes
        s.Plim_serve.Server.re_runs s.Plim_serve.Server.incorrect
        (Hgram.p50 lat) (Hgram.p99 lat) s.Plim_serve.Server.retired_shards
        skew.Wear.gini;
      List.iter
        (fun (id, status, writes) ->
          Printf.printf "  shard %d: %-7s %7d writes\n" id
            (Plim_serve.Shard.status_name status)
            writes)
        (Plim_serve.Server.shard_statuses server);
      serve_rows :=
        Plim_serve.Server.row_json server ~label ~wall_s:wall :: !serve_rows)
    scenarios;
  Printf.printf
    "(the retire drill's spare shards go active and absorb the second half of\n\
    \ the stream; correctness is preserved by write-verify + re-execution)\n"

(* ------------------------------------------------------------------ *)
(* Horizon: accelerated-time device-lifetime campaigns over the serve
   fleet.  Sampled epochs of real traffic set per-cell write rates;
   between samples wear fast-forwards in closed form, so each grid cell
   simulates the whole life of the fleet (until the capacity floor) in
   milliseconds.  Every number is a pure function of the seeds -- the
   rows are part of the -j1 == -j4 byte-identity gate. *)

let horizon_rows : Json.t list ref = ref []
let cert_rows : Json.t list ref = ref []

let horizon () =
  let module H = Plim_serve.Horizon in
  Printf.printf
    "\nHORIZON — years of traffic to first device death, per endurance strategy\n";
  let base = H.default_config in
  Printf.printf
    "(endurance %.3g writes/cell; epochs of %d requests, sampled every %g;\n\
    \ lifetimes also projected to %.0e-write devices — the paper's Table III\n\
    \ restated as time-to-first-failure / capacity half-life per strategy)\n"
    base.H.endurance base.H.epoch_requests base.H.sample_every
    base.H.project_endurance;
  let rates = [ 0.0; 0.005; 0.02 ] in
  let cells = H.grid ?pool:!pool base ~strategies:H.all_strategies ~fault_rates:rates in
  Printf.printf "%-18s %6s %9s %10s %11s %9s %5s %6s\n" "strategy" "rate"
    "ttff" "half-life" "proj-ttff" "capacity" "dead" "gini";
  let fmt_opt = function Some e -> Printf.sprintf "%.4g" e | None -> "-" in
  List.iter
    (fun (_, rate, r) ->
      let proj =
        match r.H.r_ttff with
        | Some e -> Printf.sprintf "%.3gy" (H.years_of r e *. r.H.r_project_factor)
        | None -> "-"
      in
      Printf.printf "%-18s %6g %9s %10s %11s %9.2f %5d %6.4f\n"
        (H.strategy_name r.H.r_strategy)
        rate (fmt_opt r.H.r_ttff) (fmt_opt r.H.r_half_life) proj
        r.H.r_final_capacity r.H.r_dead_shards r.H.r_skew.Wear.gini)
    cells;
  (* self-check: the combined strategy must strictly outlive the unmanaged
     baseline at every fault rate, on both lifetime metrics *)
  let find st rate =
    List.find (fun (s, r, _) -> s = st && r = rate) cells |> fun (_, _, r) -> r
  in
  let opt_inf = function Some e -> e | None -> infinity in
  let violations =
    List.concat_map
      (fun rate ->
        let none = find H.No_leveling rate in
        let both = find H.Start_gap_wolfram rate in
        let check name a b =
          if opt_inf b > opt_inf a then []
          else
            [ Printf.sprintf "%s at rate %g: start_gap+wolfram %g <= none %g"
                name rate (opt_inf b) (opt_inf a) ]
        in
        check "ttff" none.H.r_ttff both.H.r_ttff
        @ check "half-life" none.H.r_half_life both.H.r_half_life)
      rates
  in
  (match violations with
  | [] ->
    Printf.printf
      "(ok: start_gap+wolfram strictly outlives none at every fault rate)\n"
  | vs ->
    List.iter (Printf.printf "VIOLATION: %s\n") vs;
    fail "horizon: %d lifetime ordering violation(s)" (List.length vs));
  (* static certification gate: every published row must fall inside
     the bracket Plim_certify derives without simulating.  The default
     mix (compile_ratio > 0) only has finite lower bounds, so a second
     exec-only grid pins the upper ends too; its rows ride along in the
     results under a "/exec" label suffix. *)
  let module C = Plim_certify in
  let certs = C.grid base ~strategies:H.all_strategies ~fault_rates:rates in
  let xbase =
    { base with
      H.mix =
        { base.H.mix with Plim_serve.Workload.compile_ratio = 0.0 } }
  in
  let xcells =
    H.grid ?pool:!pool xbase ~strategies:H.all_strategies ~fault_rates:rates
  in
  let xcerts = C.grid xbase ~strategies:H.all_strategies ~fault_rates:rates in
  let rows = List.map (fun (_, _, r) -> H.row_json r) cells in
  let xrows =
    List.map (fun (_, _, r) -> H.row_json ~label:(H.label r ^ "/exec") r) xcells
  in
  let escapes =
    List.concat_map
      (fun (certs, rows) ->
        List.filter_map
          (fun row -> Result.fold ~ok:(fun _ -> None) ~error:Option.some
              (C.check_row_json certs row))
          rows)
      [ (certs, rows); (xcerts, xrows) ]
  in
  List.iter (Printf.printf "CERT FAIL %s\n") escapes;
  if escapes <> [] then
    fail "[bench] %d simulated cell(s) escape their static certificates"
      (List.length escapes);
  Printf.printf
    "(ok: all %d simulated cells inside their static wear-bound certificates)\n"
    (List.length rows + List.length xrows);
  cert_rows :=
    List.map (fun (_, _, c) -> C.row_json c) certs
    @ List.map
        (fun (_, _, c) -> C.row_json ~label:(C.label c ^ "/exec") c)
        xcerts;
  horizon_rows := rows @ xrows

(* ------------------------------------------------------------------ *)
(* Geometry: the area/latency trade-off curve of the crossbar-geometry
   backend.  Each suite benchmark is compiled once (endurance-full) and
   its instruction stream scheduled on grids of widening column count;
   latency is the number of row-parallel instruction groups, area the
   rows*cols device bound.  Every number is a pure function of the
   program and grid, so the rows are part of the -j1 == -j4
   byte-identity gate. *)

let geometry_rows : Json.t list ref = ref []

let geometry_cols = [ 1; 4; 16; 64 ]

let geometry () =
  Printf.printf
    "\nGEOMETRY — area/latency trade-off of row-parallel scheduling\n";
  Printf.printf
    "(endurance-full programs placed row-major on ROWSxCOLS grids; each cycle\n\
    \ fires every ready instruction whose cells share one row, so group count\n\
    \ falls as columns widen while area tracks the grid bound; cols=1 is the\n\
    \ serial flat-controller baseline)\n";
  Printf.printf "%-12s %5s %10s %6s %7s %7s %10s %9s %8s\n" "benchmark" "cols"
    "grid" "area" "instrs" "groups" "cross-row" "max-group" "speedup";
  List.iter
    (fun spec ->
      let g = Suite.build_cached spec in
      let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
      let n_instr = Program.length p in
      let n_cells = Program.num_cells p in
      List.iter
        (fun cols ->
          let grid = Geometry.grid_for ~cols ~num_cells:n_cells in
          let gname = Geometry.to_string grid in
          let sched =
            match Geometry.schedule grid p with
            | Ok s -> s
            | Error e -> fail "geometry: %s @%s: %s" spec.Suite.name gname e
          in
          (match Geometry.validate p sched with
          | Ok () -> ()
          | Error e ->
            fail "geometry: %s @%s: invalid schedule: %s" spec.Suite.name gname e);
          let groups = Geometry.num_groups sched in
          (* self-checks: row parallelism can only shorten the schedule,
             and a single-column grid must degenerate to the serial
             instruction stream *)
          if groups > n_instr then
            fail "geometry: %s @%s: %d groups > %d instructions" spec.Suite.name
              gname groups n_instr;
          if cols = 1 && groups <> n_instr then
            fail "geometry: %s @1 column: %d groups for %d instructions"
              spec.Suite.name groups n_instr;
          Printf.printf "%-12s %5d %10s %6d %7d %7d %10d %9d %7.2fx\n"
            spec.Suite.name cols gname (Geometry.area grid) n_instr groups
            sched.Geometry.s_cross_row
            (Geometry.max_group_size sched)
            (float_of_int n_instr /. float_of_int (max 1 groups));
          geometry_rows :=
            Json.Obj
              [ ("benchmark", Str spec.Suite.name); ("config", Str "endurance-full");
                ("grid", Str gname); ("rows", Int grid.Geometry.rows);
                ("cols", Int grid.Geometry.cols); ("area", Int (Geometry.area grid));
                ("instructions", Int n_instr); ("groups", Int groups);
                ("cross_row", Int sched.Geometry.s_cross_row);
                ("max_group", Int (Geometry.max_group_size sched)) ]
            :: !geometry_rows)
        geometry_cols)
    !suite;
  Printf.printf
    "(groups <= instructions on every grid; cols=1 reproduces the serial\n\
    \ instruction count exactly)\n"

(* ------------------------------------------------------------------ *)
(* Machine-readable results: bench/results/latest.json carries the same
   numbers as Tables I-III plus phase wall-clock totals, so the perf
   trajectory can be tracked across commits (schema in EXPERIMENTS.md). *)

let bprintf = Printf.bprintf

let result_json ?cap ~config (res : Pipeline.result) =
  let s = summary res in
  let p = res.Pipeline.program in
  (* static dataflow columns: pure functions of the program, so they are
     deterministic and safe under the -j1 == -jN byte-identity rules *)
  let a = Plim_analyze.analyze ?max_writes:cap p in
  let dead_writes =
    List.length
      (List.filter
         (fun d -> d.Plim_analyze.kind = Plim_analyze.Dead_write)
         a.Plim_analyze.diagnostics)
  in
  let counts = Program.static_write_counts p in
  let cap_field = match cap with Some c -> [ ("cap", Json.Int c) ] | None -> [] in
  Json.Obj
    ((("config", Json.Str config) :: cap_field)
    @ [ ("instructions", Int (Program.length p));
        ("rram_cells", Int (Program.num_cells p));
        ( "writes",
          Obj
            [ ("min", Int s.Stats.min); ("max", Int s.Stats.max);
              ("total", Int s.Stats.total); ("mean", Num s.Stats.mean);
              ("stdev", Num s.Stats.stdev); ("p50", Int s.Stats.p50);
              ("p90", Int s.Stats.p90); ("p99", Int s.Stats.p99) ] );
        (* v2 columns: wear-skew balance metrics and the full log-bucketed
           write-count distribution, all pure functions of the program *)
        ( "skew",
          Obj
            [ ("gini", Num (Stats.gini counts));
              ("max_mean", Num (Stats.max_mean_ratio s)) ] );
        ("histogram", Hgram.to_json (Hgram.of_array counts));
        ("storage", Plim_analyze.storage_json a.Plim_analyze.storage);
        ("dead_writes", Int dead_writes) ])

(* a directory that cannot be made is reported by the write that follows *)
let ensure_dir dir = try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ()

let write_results_json results path =
  ensure_dir (Filename.dirname path);
  let b = Buffer.create 65536 in
  (* --deterministic zeroes the two wall-clock fields so -j1/-jN runs
     produce byte-identical files *)
  bprintf b "{\"schema\":\"plim-bench/v2\",\"generated_at\":%.0f,\"benchmarks\":[\n"
    (if !deterministic then 0.0 else Unix.time ());
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string b ",\n";
      let configs =
        List.map
          (fun (config, res) -> result_json ~config res)
          [ ("naive", r.naive); ("dac16", r.dac16); ("min-write", r.min_write);
            ("endurance-rewrite", r.endurance_rewrite);
            ("endurance-full", r.endurance_full) ]
        @ List.map
            (fun (cap, res) ->
              result_json ~cap ~config:(Printf.sprintf "endurance-full+cap%d" cap) res)
            r.capped
      in
      Json.write_into b
        (Obj
           [ ("name", Str r.spec.Suite.name); ("pi", Int r.spec.Suite.pi);
             ("po", Int r.spec.Suite.po); ("configs", Arr configs) ]))
    results;
  Buffer.add_string b "\n],\"phases\":[";
  List.iteri
    (fun i (name, (calls, total)) ->
      if i > 0 then Buffer.add_char b ',';
      bprintf b "\n{\"name\":%s,\"calls\":%d,\"total_s\":%.6f}"
        (Plim_util.Jsonx.quote name)
        calls
        (if !deterministic then 0.0 else total))
    (Profile.totals ());
  List.iter
    (fun (name, rows) ->
      bprintf b "\n],%s:[" (Plim_util.Jsonx.quote name);
      List.iteri
        (fun i row ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '\n';
          Json.write_into b row)
        rows)
    [ ("faulttol", List.rev !faulttol_rows); ("wear", !wear_rows);
      ("serve", List.rev !serve_rows); ("horizon", !horizon_rows);
      ("cert", !cert_rows); ("geometry", List.rev !geometry_rows) ];
  Buffer.add_string b "\n]}\n";
  match Plim_util.File.write path (Buffer.contents b) with
  | Ok () -> Printf.eprintf "[bench] wrote %s\n%!" path
  | Error e ->
    prerr_endline ("bench: " ^ e);
    exit 2

(* the table phases also run when no phase is named *)
let table_phases = [ "table1"; "table2"; "table3"; "summary" ]

(* the phases that fill a results section beside the tables' rows *)
let section_phases =
  [ ("faulttol", faulttol); ("wear", wear); ("serve", serve); ("horizon", horizon);
    ("geometry", geometry) ]

(* the phases that only print, in print order after the tables *)
let print_phases =
  [ ("ablations", ablations); ("section2", section2); ("wearlevel", wearlevel);
    ("lifetime", lifetime_bench) ]

let usage () =
  prerr_endline
    "usage: main.exe [PHASE...] [-j N] [--suite small|all] [--deterministic]\n\
    \                [--results PATH]\n\
     phases: table1 table2 table3 summary ablations section2 wearlevel\n\
    \        lifetime faulttol wear serve horizon geometry all\n\
    \        (a failed self-check exits 1; horizon also certifies every\n\
    \        cell against its static plim-cert/v1 wear bracket)\n\
     -j N            run fan-out phases on N domains (default: domain count);\n\
    \                -j 1 is byte-identical to the sequential program\n\
     --suite small   restrict tables to the small benchmark suite\n\
     --deterministic zero wall-clock fields in the results JSON\n\
     --results PATH  write the results JSON to PATH (default\n\
    \                bench/results/latest.json)";
  exit 2

let () =
  Profile.enable ();
  let jobs = ref (Par.default_jobs ()) in
  let args = ref [] in
  let known a =
    a = "all" || List.mem a table_phases || List.mem_assoc a section_phases
    || List.mem_assoc a print_phases
  in
  let rec parse = function
    | [] -> ()
    | "--" :: rest -> parse rest
    | ("-j" | "--jobs") :: n :: rest -> (
      match int_of_string_opt n with
      | Some j when j >= 1 ->
        jobs := j;
        parse rest
      | _ -> usage ())
    | "--suite" :: "small" :: rest ->
      suite := Suite.small_suite;
      parse rest
    | "--suite" :: "all" :: rest ->
      suite := Suite.all;
      parse rest
    | "--deterministic" :: rest ->
      deterministic := true;
      parse rest
    | "--results" :: path :: rest ->
      results_path := path;
      parse rest
    | a :: rest when known a ->
      args := a :: !args;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let args = List.rev !args in
  (* always through the pool, even at -j 1 (which spawns no domain and
     runs the pure sequential path): the "par.map" profile entry must
     appear at every jobs level or latest.json would differ by -j *)
  pool := Some (Par.create ~jobs:!jobs ());
  (* [asked x]: phase [x] was named, or "all"; the four tables also run
     when no phase is named *)
  let asked x = List.mem x args || List.mem "all" args in
  let want x = args = [] || asked x in
  let results = if List.exists want table_phases then all_results () else [] in
  List.iter (fun (x, run) -> if asked x then run ()) section_phases;
  if results <> [] || List.exists (fun (x, _) -> asked x) section_phases then
    write_results_json results !results_path;
  if want "table1" then table1 results;
  if want "table2" then table2 results;
  if want "table3" then table3 results;
  if want "summary" then summary_table results;
  List.iter (fun (x, run) -> if asked x then run ()) print_phases;
  match !pool with Some p -> Par.shutdown p | None -> ()
