(* Plim_par: determinism contract of the domain pool.

   Everything here must hold at every jobs level, so most tests run the
   same assertion against a jobs=1 pool (the pure sequential path), a
   jobs=2 pool and a jobs=4 pool. *)

module Par = Plim_par
module Splitmix = Plim_util.Splitmix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let at_each_level f =
  List.iter (fun jobs -> Par.with_pool ~jobs (fun p -> f p)) [ 1; 2; 4 ]

(* --- ordering --------------------------------------------------------- *)

let test_map_matches_list_map () =
  at_each_level (fun p ->
      let xs = List.init 100 Fun.id in
      let f x = (x * x) + 1 in
      Alcotest.(check (list int))
        (Printf.sprintf "map = List.map at jobs=%d" (Par.jobs p))
        (List.map f xs) (Par.map p ~f xs))

let test_map_submission_order_under_skew () =
  (* early tasks are the slowest, so with >1 domain later tasks complete
     first; the merge must still be in submission order *)
  at_each_level (fun p ->
      let xs = List.init 32 Fun.id in
      let f x =
        if x < 4 then Unix.sleepf 0.005;
        x
      in
      Alcotest.(check (list int)) "submission order survives skew" xs
        (Par.map p ~f xs))

let test_mapi_passes_index () =
  at_each_level (fun p ->
      let xs = [ "a"; "b"; "c"; "d" ] in
      Alcotest.(check (list string))
        "mapi index" [ "0a"; "1b"; "2c"; "3d" ]
        (Par.mapi p ~f:(fun i s -> string_of_int i ^ s) xs))

let test_map_empty_and_singleton () =
  at_each_level (fun p ->
      Alcotest.(check (list int)) "empty" [] (Par.map p ~f:(fun x -> x) []);
      Alcotest.(check (list int)) "singleton" [ 9 ] (Par.map p ~f:(( * ) 3) [ 3 ]))

(* --- exceptions ------------------------------------------------------- *)

exception Boom of int

let test_lowest_index_exception_wins () =
  (* several tasks fail; the re-raised exception must be the lowest
     submission index — what a sequential run would have hit first — no
     matter which failing task finishes first *)
  at_each_level (fun p ->
      let xs = List.init 24 Fun.id in
      let f x =
        if x = 20 then raise (Boom 20);
        if x = 7 then (
          Unix.sleepf 0.002;
          raise (Boom 7));
        x
      in
      match Par.map p ~f xs with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom i ->
        check_int (Printf.sprintf "lowest index at jobs=%d" (Par.jobs p)) 7 i)

let test_all_tasks_ran_despite_exception () =
  (* jobs = 1 is the sequential program, so it short-circuits exactly like
     List.map; a wider pool has already enqueued the whole batch, so every
     task still runs and the join is not short-circuited *)
  at_each_level (fun p ->
      let ran = Atomic.make 0 in
      let f x =
        Atomic.incr ran;
        if x = 0 then failwith "first";
        x
      in
      (try ignore (Par.map p ~f (List.init 16 Fun.id)) with Failure _ -> ());
      let expected = if Par.jobs p = 1 then 1 else 16 in
      check_int
        (Printf.sprintf "tasks run at jobs=%d" (Par.jobs p))
        expected (Atomic.get ran))

(* --- nesting ---------------------------------------------------------- *)

let test_nested_map () =
  (* a task that submits its own batch on the same pool: the helping join
     must keep making progress (this deadlocks on a naive pool whose
     submitter blocks) *)
  at_each_level (fun p ->
      let outer = List.init 6 Fun.id in
      let result =
        Par.map p
          ~f:(fun i -> Par.map p ~f:(fun j -> (10 * i) + j) (List.init 4 Fun.id))
          outer
      in
      let expected =
        List.map (fun i -> List.init 4 (fun j -> (10 * i) + j)) outer
      in
      Alcotest.(check (list (list int)))
        (Printf.sprintf "nested map at jobs=%d" (Par.jobs p))
        expected result)

(* --- lifecycle -------------------------------------------------------- *)

let test_shutdown_idempotent_and_fatal () =
  let p = Par.create ~jobs:2 () in
  check_int "jobs" 2 (Par.jobs p);
  Par.shutdown p;
  Par.shutdown p;
  check_bool "map after shutdown raises" true
    (match Par.map p ~f:Fun.id [ 1 ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_default_jobs_positive () =
  check_bool "default >= 1" true (Par.default_jobs () >= 1)

(* --- end-to-end determinism of the wired fan-outs ---------------------- *)

let test_fuzz_report_independent_of_jobs () =
  (* synthetic check so the campaign is fast and has known failures: a
     description "fails" iff it has >= 2 outputs.  The report — cases,
     counterexample order, shrunk witnesses, shrink steps — must be
     byte-identical at every pool width. *)
  let module Fuzz = Plim_check.Fuzz in
  let check g =
    if Plim_check.Fuzz.Mig.num_outputs g >= 2 then
      [ { Plim_check.Check.config = "synthetic";
          invariant = "multi-output";
          message = "synthetic failure" } ]
    else []
  in
  let options =
    { Fuzz.default_options with runs = 30; seed = 7; corpus_dir = None }
  in
  let strip (r : Fuzz.report) =
    ( r.cases,
      List.map
        (fun (c : Fuzz.counterexample) ->
          (c.run_index, c.case_seed, Plim_check.Gen.print c.desc, c.shrink_steps))
        r.counterexamples )
  in
  let seq = strip (Fuzz.run ~check options) in
  check_bool "synthetic campaign found counterexamples" true (snd seq <> []);
  List.iter
    (fun jobs ->
      Par.with_pool ~jobs (fun pool ->
          let par = strip (Fuzz.run ~pool ~check options) in
          check_bool
            (Printf.sprintf "fuzz report identical at jobs=%d" jobs)
            true (par = seq)))
    [ 2; 4 ]

let test_sweep_degraded_independent_of_jobs () =
  let module Campaign = Plim_machine.Campaign in
  let module Pipeline = Plim_core.Pipeline in
  let module Suite = Plim_benchgen.Suite in
  let g = Suite.build_cached (Suite.find "dec4") in
  let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
  let sweep pool =
    Campaign.sweep_degraded ?pool ~seed:0xBE57 ~max_executions:10 ~verify:true
      ~oracle:(Plim_mig.Mig.eval g)
      ~fault_spec_of:(fun rate ->
        Plim_fault.Fault_model.make ~sa0:rate ~seed:0xFA017 ())
      ~rates:[ 0.0; 0.02 ] ~spare_budgets:[ 0; 8 ] p
  in
  let strip =
    List.map (fun (d : Campaign.degradation) ->
        (d.executions, d.correct, d.injected, d.remaps, d.final_capacity))
  in
  let seq = strip (sweep None) in
  check_int "grid size" 4 (List.length seq);
  Par.with_pool ~jobs:4 (fun pool ->
      check_bool "sweep grid identical at jobs=4" true
        (strip (sweep (Some pool)) = seq))

(* Two domains rewrite one shared source graph at once, as lifetime-grid's
   cells do.  The source has no strash ([Frontend.expand] drops it) and
   [Recipe.run] only reads it, indexing it into a table of its own: both
   results are the sequential one, and the source holds the same words
   before and after, so no table was built into it. *)
let test_shared_source_recipe () =
  let module Mig = Plim_mig.Mig in
  let module Recipe = Plim_rewrite.Recipe in
  let g = (Plim_benchgen.Suite.find "cavlc").Plim_benchgen.Suite.build () in
  let top = Mig.num_nodes g - 1 in
  Alcotest.check_raises "the source has no strash"
    (Invalid_argument "Mig.lookup: the graph has no structural hash") (fun () ->
      ignore
        (Mig.lookup ~below:max_int g (Mig.child g top 0) (Mig.child g top 1)
           (Mig.child g top 2)));
  let words () = Obj.reachable_words (Obj.repr g) in
  let before = words () and digest = Plim_mig.Mig_io.digest g in
  let rewrite _ = Plim_mig.Mig_io.digest (Recipe.run Recipe.Algorithm2 ~effort:5 g) in
  let seq = rewrite () in
  (match Par.with_pool ~jobs:2 (fun pool -> Par.map pool ~f:rewrite [ 0; 1 ]) with
  | [ d0; d1 ] ->
    check_bool "the two domains agree" true (String.equal d0 d1);
    check_bool "and equal the sequential run" true (String.equal d0 seq)
  | _ -> Alcotest.fail "two results expected");
  check_int "the source holds the same words" before (words ());
  check_bool "the source is unchanged" true
    (String.equal digest (Plim_mig.Mig_io.digest g))

let () =
  Alcotest.run "par"
    [ ( "ordering",
        [ Alcotest.test_case "map = List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "submission order under skew" `Quick
            test_map_submission_order_under_skew;
          Alcotest.test_case "mapi index" `Quick test_mapi_passes_index;
          Alcotest.test_case "empty/singleton" `Quick test_map_empty_and_singleton ] );
      ( "exceptions",
        [ Alcotest.test_case "lowest index wins" `Quick
            test_lowest_index_exception_wins;
          Alcotest.test_case "join not short-circuited" `Quick
            test_all_tasks_ran_despite_exception ] );
      ( "composition",
        [ Alcotest.test_case "nested map" `Quick test_nested_map ] );
      ( "lifecycle",
        [ Alcotest.test_case "shutdown" `Quick test_shutdown_idempotent_and_fatal;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_positive ] );
      ( "end-to-end",
        [ Alcotest.test_case "fuzz report vs -j" `Quick
            test_fuzz_report_independent_of_jobs;
          Alcotest.test_case "campaign sweep vs -j" `Quick
            test_sweep_degraded_independent_of_jobs;
          Alcotest.test_case "one table-less source rewritten from two domains" `Quick
            test_shared_source_recipe ] ) ]
