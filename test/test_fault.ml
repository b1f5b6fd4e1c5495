module Crossbar = Plim_rram.Crossbar
module Fault_model = Plim_fault.Fault_model
module Faulty = Plim_fault.Faulty
module Remap = Plim_fault.Remap
module Exec = Plim_fault.Exec
module Pipeline = Plim_core.Pipeline
module Program = Plim_isa.Program
module Controller = Plim_machine.Plim_controller
module Metrics = Plim_obs.Metrics

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- fault model -------------------------------------------------------- *)

let kinds_to_bools = List.map (fun (i, k) -> (i, k = Fault_model.Stuck_at_1))

let test_model_reproducible () =
  let spec = Fault_model.make ~sa0:0.05 ~sa1:0.05 ~seed:42 () in
  let s1 = Fault_model.sample_permanent spec ~cells:500 in
  let s2 = Fault_model.sample_permanent spec ~cells:500 in
  check_bool "some faults at 10%" true (List.length s1 > 0);
  Alcotest.(check (list (pair int bool)))
    "same spec, same faults" (kinds_to_bools s1) (kinds_to_bools s2);
  List.iter
    (fun (i, k) -> check_bool "cell_fault agrees" true (Fault_model.cell_fault spec i = Some k))
    s1;
  let other = Fault_model.make ~sa0:0.05 ~sa1:0.05 ~seed:43 () in
  check_bool "different seed, different faults" true
    (kinds_to_bools s1 <> kinds_to_bools (Fault_model.sample_permanent other ~cells:500))

let test_model_monotone () =
  (* coupled thresholds: doubling the rates only adds faults *)
  let spec = Fault_model.make ~sa0:0.02 ~sa1:0.01 ~seed:7 () in
  let low = Fault_model.sample_permanent spec ~cells:1000 in
  let high =
    Fault_model.sample_permanent (Fault_model.make ~sa0:0.04 ~sa1:0.02 ~seed:7 ()) ~cells:1000
  in
  check_bool "low rate faults survive scaling" true
    (List.for_all (fun (i, _) -> List.mem_assoc i high) low);
  check_bool "scaling adds faults" true (List.length high > List.length low)

let test_model_parse () =
  (match Fault_model.parse "sa0:0.01,sa1:0.005,transient:1e-4,growth:1e-6,seed:42" with
  | Ok s ->
    check_bool "sa0" true (s.Fault_model.sa0 = 0.01);
    check_bool "sa1" true (s.Fault_model.sa1 = 0.005);
    check_bool "transient" true (s.Fault_model.transient = 1e-4);
    check_bool "growth" true (s.Fault_model.transient_growth = 1e-6);
    check_int "seed" 42 s.Fault_model.seed
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault_model.parse "none" with
  | Ok s ->
    Alcotest.(check string) "none parses" (Fault_model.to_string Fault_model.none)
      (Fault_model.to_string s)
  | Error e -> Alcotest.failf "parse none failed: %s" e);
  check_bool "junk rejected" true (Result.is_error (Fault_model.parse "sa2:0.1"));
  check_bool "bad rate rejected" true (Result.is_error (Fault_model.parse "sa0:1.5"))

(* --- faulty wrapper ----------------------------------------------------- *)

let test_injection_reproducible () =
  let spec = Fault_model.make ~sa0:0.04 ~sa1:0.04 ~seed:11 () in
  let fx1 = Faulty.create ~spec (Crossbar.create 300) in
  let fx2 = Faulty.create ~spec (Crossbar.create 300) in
  check_bool "nonempty" true (Faulty.injected fx1 > 0);
  (* a healthy cell reads back both values, a stuck-at-v cell v twice *)
  let read_back fx =
    List.init 300 (fun i ->
        Faulty.write fx i true;
        let r1 = Faulty.read fx i in
        Faulty.write fx i false;
        (r1, Faulty.read fx i))
  in
  Alcotest.(check (list (pair bool bool))) "same wrapper faults" (read_back fx1) (read_back fx2)

let test_verify_detects_stuck () =
  (* a stuck cell is caught by read-back on the first conflicting write *)
  let faults =
    [ (1, Fault_model.Stuck_at_0); (3, Fault_model.Stuck_at_1);
      (6, Fault_model.Stuck_at_0) ]
  in
  let fx = Faulty.create ~faults (Crossbar.create 8) in
  check_int "all injected" 3 (Faulty.injected fx);
  let absorbed = Metrics.get "fault.absorbed_writes" in
  List.iter
    (fun (i, kind) ->
      let conflicting = kind = Fault_model.Stuck_at_0 in
      Faulty.write fx i conflicting;
      check_bool "read-back exposes the fault" true (Faulty.read fx i <> conflicting))
    faults;
  check_int "all writes absorbed" 3 (Metrics.get "fault.absorbed_writes" - absorbed);
  (* healthy cells pass read-back *)
  Faulty.write fx 0 true;
  check_bool "healthy read-back" true (Faulty.read fx 0)

let test_wearout_becomes_stuck () =
  (* endurance exhaustion degrades into a stuck-at fault instead of a
     Cell_failed crash *)
  let fx = Faulty.create (Crossbar.create ~endurance:2 2) in
  Faulty.write fx 0 true;
  Faulty.write fx 0 false;
  check_int "worn out" 1 (Faulty.worn_out fx);
  check_bool "stuck at last value" false (Faulty.read fx 0);
  Faulty.write fx 0 true;   (* absorbed, no exception *)
  check_bool "still stuck" false (Faulty.read fx 0);
  check_bool "capacity halved" true (Faulty.capacity fx = 0.5)

(* --- fault-tolerant execution ------------------------------------------- *)

let adder4 = Helpers.adder4

let run_with ~faults ~spares ?spec () =
  let p, inputs, _ = Lazy.force adder4 in
  let rm = Remap.create ~spares ~lines:(Program.num_cells p) () in
  let base = Crossbar.create (Remap.num_physical rm) in
  let fx = Faulty.create ?spec ~faults base in
  Exec.run ~verify:true fx rm p ~inputs

let test_remap_preserves_results () =
  (* k stuck-at-LRS faults on program cells: the power-on scrub detects
     every one; with k spares the run completes correctly, with k - 1 the
     pool runs dry *)
  let _, _, reference = Lazy.force adder4 in
  for k = 0 to 3 do
    let faults = List.init k (fun i -> (i, Fault_model.Stuck_at_1)) in
    (match run_with ~faults ~spares:k () with
    | Exec.Completed outputs, stats ->
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "correct with %d faults, %d spares" k k)
        reference outputs;
      check_int "every fault detected" k stats.Exec.detections;
      check_int "every detection repaired" k stats.Exec.remaps;
      (* a line stuck opposite to the value written costs exactly 2
         in-place retries before it is remapped *)
      check_int "2 retries per stuck line" (2 * k) stats.Exec.retries
    | Exec.Out_of_spares _, _ -> Alcotest.failf "pool dry with %d spares for %d faults" k k);
    if k > 0 then
      match run_with ~faults ~spares:(k - 1) () with
      | Exec.Out_of_spares _, stats ->
        check_int "partial repairs before exhaustion" (k - 1) stats.Exec.remaps
      | Exec.Completed _, _ ->
        Alcotest.failf "completed with %d faults but %d spares" k (k - 1)
  done

let test_faulty_spare_is_reverified () =
  (* the first spare handed out is itself stuck: repair must cascade to
     the next spare *)
  let p, _, reference = Lazy.force adder4 in
  let lines = Program.num_cells p in
  let faults = [ (0, Fault_model.Stuck_at_1); (lines, Fault_model.Stuck_at_1) ] in
  match run_with ~faults ~spares:2 () with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "correct through faulty spare"
      reference outputs;
    check_int "both stuck lines detected" 2 stats.Exec.detections
  | Exec.Out_of_spares _, _ -> Alcotest.fail "pool dry despite a healthy second spare"

let test_transient_recovered_by_retry () =
  let _, _, reference = Lazy.force adder4 in
  let spec = Fault_model.make ~transient:0.2 ~seed:99 () in
  match run_with ~faults:[] ~spares:32 ~spec () with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "correct despite transients"
      reference outputs;
    check_bool "retries happened" true (stats.Exec.retries > 0)
  | Exec.Out_of_spares _, _ -> Alcotest.fail "transients exhausted 32 spares"

let test_zero_fault_bit_identical () =
  (* no faults, verify off: the wrapped execution is indistinguishable
     from the bare controller — same outputs, same per-cell write counts *)
  let p, inputs, reference = Lazy.force adder4 in
  let rm = Remap.create ~lines:(Program.num_cells p) () in
  let base = Crossbar.create (Program.num_cells p) in
  let fx = Faulty.create base in
  (match Exec.run fx rm p ~inputs with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "same outputs" reference outputs;
    check_int "no verify reads" 0 stats.Exec.verify_reads;
    check_int "no retries" 0 stats.Exec.retries
  | Exec.Out_of_spares _, _ -> Alcotest.fail "no faults, no spares needed");
  let _, xbar, _ = Controller.run p ~inputs in
  Alcotest.(check (array int)) "same write counts" (Crossbar.write_counts xbar)
    (Crossbar.write_counts base)

(* The write-verify loop allocates per run, not per instruction: under
   transient faults every RM3 draws from the fault rng and is read back,
   and none of that may box or build a closure. *)
let test_exec_allocation () =
  let graph = Plim_benchgen.Suite.build_cached (Plim_benchgen.Suite.find "sqrt8") in
  let p = (Pipeline.compile Pipeline.endurance_full graph).Pipeline.program in
  let spec = Fault_model.make ~transient:1e-4 ~seed:7 () in
  let fx = Faulty.create ~spec (Crossbar.create (Program.num_cells p + 8)) in
  let rm = Remap.create ~spares:8 ~lines:(Program.num_cells p) () in
  let inputs =
    Program.inputs_of_vector p.Program.pi_cells
      (Array.init (Array.length p.Program.pi_cells) (fun i -> i mod 3 = 0))
  in
  let runs = 200 in
  let retries = ref 0 in
  let before = Gc.minor_words () in
  for _ = 1 to runs do
    match Exec.run ~verify:true fx rm p ~inputs with
    | Exec.Completed _, stats -> retries := !retries + stats.Exec.retries
    | Exec.Out_of_spares _, _ -> Alcotest.fail "transients exhausted the spares"
  done;
  let words = Gc.minor_words () -. before in
  check_bool "transients fired and were retried" true (!retries > 0);
  let per_instr = words /. float_of_int (runs * Program.length p) in
  if per_instr >= 2.0 then
    Alcotest.failf "%.2f minor words per instruction (%d instructions)" per_instr
      (Program.length p)

let test_oversized_remap_table () =
  (* a persistent shard's remap table outlives any one program: a table
     with more lines than the program has cells must execute identically,
     and a smaller table must still be refused *)
  let p, inputs, reference = Lazy.force adder4 in
  let lines = Program.num_cells p in
  let rm = Remap.create ~spares:2 ~lines:(lines + 16) () in
  let base = Crossbar.create (Remap.num_physical rm) in
  let fx = Faulty.create ~faults:[ (0, Fault_model.Stuck_at_1) ] base in
  (match Exec.run ~verify:true fx rm p ~inputs with
  | Exec.Completed outputs, stats ->
    Alcotest.(check (list (pair string bool))) "correct on oversized table"
      reference outputs;
    check_int "fault on a program line still repaired" 1 stats.Exec.remaps
  | Exec.Out_of_spares _, _ -> Alcotest.fail "spares available but pool dry");
  (* only the program's own lines are scrubbed or written *)
  let counts = Faulty.wear_counts fx in
  for l = lines to lines + 15 do
    check_int (Printf.sprintf "line %d beyond the program untouched" l) 0
      counts.(Remap.physical rm l)
  done;
  let small = Remap.create ~lines:(lines - 1) () in
  Alcotest.check_raises "undersized table refused"
    (Invalid_argument "Exec.run: remap table smaller than the program's cell count")
    (fun () ->
      let base = Crossbar.create (Remap.num_physical small) in
      ignore (Exec.run (Faulty.create base) small p ~inputs))

let qc = QCheck_alcotest.to_alcotest

(* property: under any injected fault set that fits in the spare budget,
   a verified run either completes with the reference outputs or runs out
   of spares — it never completes with wrong outputs *)
let verified_never_wrong =
  QCheck.Test.make ~count:50 ~name:"write-verify never completes incorrectly"
    QCheck.(pair (int_range 0 6) small_int)
    (fun (num_faults, seed) ->
      let p, _, reference = Lazy.force adder4 in
      let spec =
        Fault_model.make ~sa0:0.0 ~sa1:0.0 ~transient:0.05 ~seed ()
      in
      let faults =
        List.init num_faults (fun i ->
            ( (i * 7 + seed) mod Program.num_cells p,
              if (i + seed) mod 2 = 0 then Fault_model.Stuck_at_0
              else Fault_model.Stuck_at_1 ))
        |> List.sort_uniq compare
      in
      match run_with ~faults ~spares:num_faults ~spec () with
      | Exec.Completed outputs, _ -> outputs = reference
      | Exec.Out_of_spares _, _ -> true)

let () =
  Alcotest.run "fault"
    [ ( "fault-model",
        [ Alcotest.test_case "seeded sampling is reproducible" `Quick
            test_model_reproducible;
          Alcotest.test_case "fault sets are monotone in the rate" `Quick
            test_model_monotone;
          Alcotest.test_case "CLI spec parsing" `Quick test_model_parse ] );
      ( "faulty-wrapper",
        [ Alcotest.test_case "injection is reproducible" `Quick
            test_injection_reproducible;
          Alcotest.test_case "read-back exposes stuck cells" `Quick
            test_verify_detects_stuck;
          Alcotest.test_case "wear-out degrades to stuck-at" `Quick
            test_wearout_becomes_stuck ] );
      ( "fault-tolerant-exec",
        [ Alcotest.test_case "remap preserves results until spares exhausted" `Quick
            test_remap_preserves_results;
          Alcotest.test_case "faulty spares are re-verified" `Quick
            test_faulty_spare_is_reverified;
          Alcotest.test_case "transients recovered by retry" `Quick
            test_transient_recovered_by_retry;
          Alcotest.test_case "zero-fault wrapper is bit-identical" `Quick
            test_zero_fault_bit_identical;
          Alcotest.test_case "oversized remap table" `Quick
            test_oversized_remap_table;
          Alcotest.test_case "write-verify allocates per run, not per instruction" `Quick
            test_exec_allocation;
          qc verified_never_wrong ] ) ]
