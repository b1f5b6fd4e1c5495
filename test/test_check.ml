(* Tests of the Plim_check fuzzing/conformance subsystem itself: the
   generator and shrinker are load-bearing test infrastructure, so they
   get their own properties, and the harness is self-tested by handing it
   a deliberately broken checker. *)

module Gen = Plim_check.Gen
module Check = Plim_check.Check
module Corpus = Plim_check.Corpus
module Fuzz = Plim_check.Fuzz
module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io
module Splitmix = Plim_util.Splitmix
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Select = Plim_core.Select
module Program = Plim_isa.Program
module I = Plim_isa.Instruction

let qc = QCheck_alcotest.to_alcotest
let desc_arb = Gen.arbitrary ()

(* --- generator ---------------------------------------------------------- *)

let generated_well_formed =
  QCheck.Test.make ~count:200 ~name:"generated descriptions are well-formed"
    QCheck.small_int
    (fun seed -> Gen.well_formed (Gen.generate (Splitmix.create seed)))

(* the description has its own evaluator, so lowering through the
   hash-consing Ω.M constructors is differentially checked against it *)
let lowering_preserves_semantics =
  QCheck.Test.make ~count:150 ~name:"Mig.eval (to_mig d) = Gen.eval d" desc_arb
    (fun d ->
      let g = Gen.to_mig d in
      let rng = Splitmix.create 0xE7A1 in
      let ok = ref true in
      for _ = 1 to 16 do
        let v = Splitmix.bits rng ~width:d.Gen.inputs in
        if Gen.eval d v <> Mig.eval g v then ok := false
      done;
      !ok)

(* The streamed digest hashes exactly the text [Mig_io.to_string] builds:
   the cache keys and corpus names are unchanged by never building it. *)
let streamed_digest_matches_text =
  QCheck.Test.make ~count:200 ~name:"Mig_io.digest = digest of Mig_io.to_string" desc_arb
    (fun d ->
      let g = Gen.to_mig d in
      Mig_io.digest g = Plim_util.Fnv.digest_string (Mig_io.to_string g))

let test_streamed_digest_suite () =
  List.iter
    (fun (spec : Plim_benchgen.Suite.spec) ->
      let g = Plim_benchgen.Suite.build_cached spec in
      Alcotest.(check string) spec.Plim_benchgen.Suite.name
        (Plim_util.Fnv.digest_string (Mig_io.to_string g))
        (Mig_io.digest g))
    Plim_benchgen.Suite.all

(* well-founded shrink measure; [idxsum] comes before [negs] because edge
   hoisting shortens reference paths but may flip a complement on *)
let measure d =
  let nonconst = ref 0 and negs = ref 0 and idxsum = ref 0 in
  let count (r : Gen.ref_) =
    if r.Gen.idx > 0 then incr nonconst;
    if r.Gen.neg then incr negs;
    idxsum := !idxsum + r.Gen.idx
  in
  Array.iter
    (fun (n : Gen.node) -> count n.Gen.a; count n.Gen.b; count n.Gen.c)
    d.Gen.nodes;
  Array.iter count d.Gen.outs;
  ( Array.length d.Gen.nodes,
    Array.length d.Gen.outs,
    d.Gen.inputs,
    !nonconst,
    !idxsum,
    !negs )

let shrink_candidates_valid =
  QCheck.Test.make ~count:100
    ~name:"shrink candidates are well-formed and strictly smaller" desc_arb
    (fun d ->
      let ok = ref true in
      Gen.shrink d (fun cand ->
          if not (Gen.well_formed cand) then ok := false;
          if compare (measure cand) (measure d) >= 0 then ok := false);
      !ok)

let shrink_roundtrip_semantics =
  (* shrinking must preserve lowerability: every candidate still builds *)
  QCheck.Test.make ~count:60 ~name:"shrink candidates still lower to MIGs" desc_arb
    (fun d ->
      let ok = ref true in
      Gen.shrink d (fun cand ->
          match Gen.to_mig cand with
          | (_ : Mig.t) -> ()
          | exception _ -> ok := false);
      !ok)

(* --- conformance -------------------------------------------------------- *)

let conformance_clean =
  QCheck.Test.make ~count:12 ~name:"Check.run finds nothing on the shipped compiler"
    (Gen.arbitrary ~max_nodes:20 ())
    (fun d ->
      match Check.run (Gen.to_mig d) with
      | [] -> true
      | fs ->
        QCheck.Test.fail_reportf "%s"
          (String.concat "\n" (List.map Check.failure_to_string fs)))

let selection_matches_reference =
  QCheck.Test.make ~count:80 ~name:"heap selection equals the naive reference oracle"
    desc_arb
    (fun d ->
      match Check.selection_failures (Gen.to_mig d) with
      | [] -> true
      | fs ->
        QCheck.Test.fail_reportf "%s"
          (String.concat "\n" (List.map Check.failure_to_string fs)))

let test_reference_order_topological () =
  let g = Gen.to_mig (Gen.generate (Splitmix.create 99)) in
  List.iter
    (fun policy ->
      let order = Check.reference_order policy g in
      Alcotest.(check int)
        (Select.policy_name policy ^ " schedules all nodes")
        (Mig.size g) (List.length order);
      let seen = Hashtbl.create 16 in
      List.iter
        (fun id ->
          (match Mig.kind g id with
          | Mig.Maj (a, b, c) ->
            List.iter
              (fun s ->
                let m = Mig.node_of s in
                match Mig.kind g m with
                | Mig.Maj _ ->
                  if not (Hashtbl.mem seen m) then
                    Alcotest.failf "%s: node %d popped before child %d"
                      (Select.policy_name policy) id m
                | _ -> ())
              [ a; b; c ]
          | _ -> Alcotest.failf "popped non-majority node %d" id);
          Hashtbl.replace seen id ())
        order)
    [ Select.In_order; Select.Release_first; Select.Level_first ]

(* --- corpus ------------------------------------------------------------- *)

let with_temp_dir f =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "plim-corpus-test" in
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  cleanup ();
  Fun.protect ~finally:cleanup (fun () -> f dir)

let test_corpus_roundtrip () =
  with_temp_dir @@ fun dir ->
  let d = Gen.generate (Splitmix.create 7) in
  let g = Gen.to_mig d in
  let path = Corpus.save ~dir ~meta:[ "failure: synthetic"; "two\nlines" ] g in
  Alcotest.(check bool) "file exists" true (Sys.file_exists path);
  let g' =
    match Corpus.load_file path with Ok g' -> g' | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "roundtrip is textually exact" (Mig_io.to_string g)
    (Mig_io.to_string g');
  (* idempotent: saving the same graph again reuses the entry *)
  let path' = Corpus.save ~dir g in
  Alcotest.(check string) "same digest, same file" path path';
  Alcotest.(check int) "one entry" 1 (List.length (Corpus.entries dir))

let test_corpus_missing_dir () =
  Alcotest.(check int) "missing directory is empty" 0
    (List.length (Corpus.entries "/nonexistent/plim-corpus"))

(* --- fuzz harness self-test --------------------------------------------- *)

(* a checker that rejects any MIG containing a complemented edge: the
   shrinker must reduce arbitrary failing graphs to a minimal witness with
   a single node and exactly one complement *)
let reject_complements mig =
  if Mig.num_complemented_edges mig > 0 then
    [ { Check.config = "synthetic"; invariant = "no-complement"; message = "edge" } ]
  else []

let test_fuzz_shrinks_to_minimal () =
  with_temp_dir @@ fun dir ->
  let options =
    { Fuzz.default_options with Fuzz.runs = 40; seed = 3; corpus_dir = Some dir }
  in
  let report = Fuzz.run ~check:reject_complements options in
  Alcotest.(check bool) "found counterexamples" true
    (report.Fuzz.counterexamples <> []);
  List.iter
    (fun (cex : Fuzz.counterexample) ->
      let mig = Gen.to_mig cex.Fuzz.desc in
      Alcotest.(check bool)
        (Printf.sprintf "case %d shrunk to a near-minimal witness" cex.Fuzz.run_index)
        true
        (Mig.size mig <= 3 && Mig.num_complemented_edges mig <= 3);
      Alcotest.(check bool) "witness still fails" true
        (reject_complements mig <> []);
      match cex.Fuzz.path with
      | None -> Alcotest.fail "counterexample not persisted"
      | Some path ->
        Alcotest.(check bool) "corpus file exists" true (Sys.file_exists path))
    report.Fuzz.counterexamples;
  Alcotest.(check bool) "corpus populated" true (Corpus.entries dir <> [])

let test_fuzz_deterministic () =
  let options =
    { Fuzz.default_options with Fuzz.runs = 25; seed = 11; corpus_dir = None }
  in
  let r1 = Fuzz.run ~check:reject_complements options in
  let r2 = Fuzz.run ~check:reject_complements options in
  Alcotest.(check int) "same case count" r1.Fuzz.cases r2.Fuzz.cases;
  Alcotest.(check (list int)) "same counterexample cases"
    (List.map (fun c -> c.Fuzz.run_index) r1.Fuzz.counterexamples)
    (List.map (fun c -> c.Fuzz.run_index) r2.Fuzz.counterexamples);
  Alcotest.(check (list string)) "byte-identical shrunk witnesses"
    (List.map (fun c -> Gen.print c.Fuzz.desc) r1.Fuzz.counterexamples)
    (List.map (fun c -> Gen.print c.Fuzz.desc) r2.Fuzz.counterexamples)

let test_case_seed_replays_campaign_case () =
  let options = { Fuzz.default_options with Fuzz.runs = 5; corpus_dir = None } in
  (* case seeds printed in reports must regenerate the very same MIG *)
  for i = 0 to 4 do
    let cs = Fuzz.case_seed_of ~seed:options.Fuzz.seed i in
    let d = Fuzz.desc_of_case_seed options cs in
    let d' = Fuzz.desc_of_case_seed options cs in
    Alcotest.(check string)
      (Printf.sprintf "case %d regenerates" i)
      (Gen.print d) (Gen.print d')
  done

(* --- exhaustive vs symbolic agreement (satellite) ------------------------ *)

let corrupt_last (p : Program.t) =
  let bad = Array.copy p.Program.instrs in
  let last = Array.length bad - 1 in
  bad.(last) <- I.set_const true p.Program.instrs.(last).I.z;
  Program.make ~instrs:bad ~num_cells:p.Program.num_cells
    ~pi_cells:p.Program.pi_cells ~po_cells:p.Program.po_cells

let agree g p =
  let ex = match Verify.check_exhaustive g p with Ok () -> true | Error _ -> false in
  let sym = match Verify.check_symbolic g p with Ok () -> true | Error _ -> false in
  if ex <> sym then
    QCheck.Test.fail_reportf "verifiers disagree: exhaustive=%b symbolic=%b" ex sym;
  true

let exhaustive_symbolic_agree =
  (* on every <=8-input generated MIG the two complete verifiers must
     accept the compiled program AND reject a corrupted one identically *)
  QCheck.Test.make ~count:40 ~name:"check_exhaustive agrees with check_symbolic"
    (QCheck.pair (Gen.arbitrary ~max_inputs:8 ~max_nodes:24 ()) QCheck.bool)
    (fun (d, use_full) ->
      let g = Gen.to_mig d in
      let config = if use_full then Pipeline.endurance_full else Pipeline.naive in
      let p = (Pipeline.compile config g).Pipeline.program in
      ignore (agree g p : bool);
      if Program.length p > 0 then ignore (agree g (corrupt_last p) : bool);
      true)

let () =
  Alcotest.run "check"
    [ ( "gen",
        [ qc generated_well_formed;
          qc lowering_preserves_semantics;
          qc shrink_candidates_valid;
          qc shrink_roundtrip_semantics ] );
      ( "conformance",
        [ qc conformance_clean;
          qc selection_matches_reference;
          Alcotest.test_case "reference order is topological" `Quick
            test_reference_order_topological ] );
      ( "corpus",
        [ Alcotest.test_case "save/load roundtrip" `Quick test_corpus_roundtrip;
          Alcotest.test_case "missing dir" `Quick test_corpus_missing_dir;
          qc streamed_digest_matches_text;
          Alcotest.test_case "streamed digest on every suite circuit" `Quick
            test_streamed_digest_suite ] );
      ( "fuzz",
        [ Alcotest.test_case "shrinks synthetic bug to minimal" `Quick
            test_fuzz_shrinks_to_minimal;
          Alcotest.test_case "deterministic campaigns" `Quick test_fuzz_deterministic;
          Alcotest.test_case "case seeds replay" `Quick
            test_case_seed_replays_campaign_case ] );
      ("agreement", [ qc exhaustive_symbolic_agree ]) ]
