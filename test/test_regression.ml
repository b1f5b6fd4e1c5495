(* Regression pins: the compiler is fully deterministic (fixed seeds,
   ordered data structures), so the reproduction numbers ARE the product.
   Any change to the rewriting rules, scheduling heuristics, translation
   cost model or allocator shows up here first — deliberately.

   Baselines generated from the current implementation; update them
   consciously when a heuristic change is intended. *)

module Suite = Plim_benchgen.Suite
module Pipeline = Plim_core.Pipeline
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats

type config_tag = Naive | Endurance_full | Cap10

let config_of = function
  | Naive -> Pipeline.naive
  | Endurance_full -> Pipeline.endurance_full
  | Cap10 -> Pipeline.with_cap 10 Pipeline.endurance_full

let tag_name = function
  | Naive -> "naive"
  | Endurance_full -> "endurance-full"
  | Cap10 -> "cap10"

(* (benchmark, configuration, #I, #R, write stdev) *)
let baselines =
  [ ("adder8", Naive, 221, 19, 9.847311);
    ("adder8", Endurance_full, 131, 19, 1.860807);
    ("adder8", Cap10, 131, 19, 1.860807);
    ("bar8", Naive, 153, 13, 8.294149);
    ("bar8", Endurance_full, 89, 18, 1.899480);
    ("bar8", Cap10, 89, 18, 1.899480);
    ("div8", Naive, 2203, 37, 42.150050);
    ("div8", Endurance_full, 1202, 54, 11.047348);
    ("div8", Cap10, 1232, 133, 0.857473);
    ("max8", Naive, 404, 35, 11.362452);
    ("max8", Endurance_full, 207, 36, 6.079908);
    ("max8", Cap10, 211, 44, 2.633521);
    ("multiplier8", Naive, 1615, 34, 41.178414);
    ("multiplier8", Endurance_full, 946, 36, 14.446474);
    ("multiplier8", Cap10, 976, 104, 1.456469);
    ("sqrt8", Naive, 1359, 31, 28.971729);
    ("sqrt8", Endurance_full, 676, 42, 6.732330);
    ("sqrt8", Cap10, 693, 79, 1.566657);
    ("square8", Naive, 1582, 37, 30.060664);
    ("square8", Endurance_full, 881, 38, 7.587577);
    ("square8", Cap10, 900, 98, 1.986418);
    ("dec4", Naive, 44, 17, 1.087838);
    ("dec4", Endurance_full, 50, 17, 1.161672);
    ("dec4", Cap10, 50, 17, 1.161672);
    ("priority16", Naive, 204, 17, 9.399625);
    ("priority16", Endurance_full, 91, 19, 8.134261);
    ("priority16", Cap10, 100, 19, 4.528763);
    ("voter15", Naive, 371, 18, 9.135638);
    ("voter15", Endurance_full, 198, 20, 1.445683);
    ("voter15", Cap10, 207, 23, 1.668115);
    ("rc_small", Naive, 1317, 48, 18.481868);
    ("rc_small", Endurance_full, 799, 64, 3.423230);
    ("rc_small", Cap10, 827, 90, 1.555595) ]

let graphs = Hashtbl.create 16

let graph name =
  match Hashtbl.find_opt graphs name with
  | Some g -> g
  | None ->
    let g = (Suite.find name).Suite.build () in
    Hashtbl.replace graphs name g;
    g

let check (name, tag, instrs, cells, stdev) () =
  let r = Pipeline.compile (config_of tag) (graph name) in
  Alcotest.(check int) "instructions" instrs (Program.length r.Pipeline.program);
  Alcotest.(check int) "devices" cells (Program.num_cells r.Pipeline.program);
  Alcotest.(check (float 1e-4)) "write stdev" stdev
    r.Pipeline.write_summary.Stats.stdev

(* Counterexample corpus replay: every MIG the fuzzer ever shrank (plus
   the hand-minimized seeds) goes through the full conformance suite on
   every run — a bug found once by fuzzing can never come back. *)
let corpus_tests =
  List.map
    (fun (name, parsed) ->
      Alcotest.test_case name `Quick (fun () ->
          match Result.map Plim_check.Check.run parsed with
          | Error e -> Alcotest.failf "unreadable corpus entry: %s" e
          | Ok [] -> ()
          | Ok failures ->
            Alcotest.failf "%d conformance failures:\n%s" (List.length failures)
              (String.concat "\n"
                 (List.map Plim_check.Check.failure_to_string failures))))
    (Plim_check.Corpus.entries "corpus")

let () =
  Alcotest.run "regression"
    [ ( "pins",
        List.map
          (fun ((name, tag, _, _, _) as row) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s" name (tag_name tag))
              `Quick (check row))
          baselines );
      ("corpus", corpus_tests) ]
