module Mig = Plim_mig.Mig
module Splitmix = Plim_util.Splitmix
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics

type options = {
  runs : int;
  seed : int;
  max_inputs : int;
  max_nodes : int;
  max_outputs : int;
  corpus_dir : string option;
  shrink : bool;
}

let default_options =
  { runs = 200;
    seed = 42;
    max_inputs = 6;
    max_nodes = 32;
    max_outputs = 4;
    corpus_dir = Some "test/corpus";
    shrink = true }

type counterexample = {
  run_index : int;
  case_seed : int;
  desc : Gen.desc;
  failures : Check.failure list;
  shrink_steps : int;
  path : (string, string) result option;
}

type report = {
  cases : int;
  counterexamples : counterexample list;
}

let m_cases = Metrics.counter "fuzz.cases"
let m_counterexamples = Metrics.counter "fuzz.counterexamples"
let m_shrink_steps = Metrics.counter "fuzz.shrink_steps"

let case_seed_of ~seed i =
  (* one splitmix stream per campaign; case i takes the i-th draw *)
  let rng = Splitmix.create seed in
  let s = ref 0 in
  for _ = 0 to i do
    s := Int64.to_int (Int64.shift_right_logical (Splitmix.next64 rng) 2)
  done;
  !s

let generate options case_seed =
  Gen.generate ~max_inputs:options.max_inputs ~max_nodes:options.max_nodes
    ~max_outputs:options.max_outputs (Splitmix.create case_seed)

let desc_of_case_seed options case_seed = generate options case_seed

let max_shrink_steps = 4096

let shrink_to_minimal ~fails d =
  let steps = ref 0 in
  let exception Found of Gen.desc in
  let rec improve d =
    match
      Gen.shrink d (fun cand ->
          if Gen.well_formed cand && fails cand then raise (Found cand))
    with
    | () -> (d, !steps)
    | exception Found cand ->
      incr steps;
      if !steps >= max_shrink_steps then (cand, !steps) else improve cand
  in
  improve d

(* The campaign splits into two phases so [-j N] output is byte-identical
   to [-j 1]:

   1. generate + check every case, on the pool when one is given.  Each
      case's seed was already fixed up front (a pure function of the
      campaign seed and the case index), so parallel execution changes
      neither which cases run nor their verdicts — only wall-clock.
   2. shrink and persist the failing cases *sequentially in submission
      order*.  Shrinking is deterministic per case, so the first
      counterexample (and every later one) is the same at any [-j]. *)
let run ?pool ?(check = fun mig -> Check.run mig) ?case_seeds ?(on_case = fun _ -> ())
    options =
  let seeds =
    match case_seeds with
    | Some seeds -> seeds
    | None ->
      (* explicit loop: the draw order must be the case order *)
      let rng = Splitmix.create options.seed in
      let acc = ref [] in
      for _ = 1 to options.runs do
        acc := Int64.to_int (Int64.shift_right_logical (Splitmix.next64 rng) 2) :: !acc
      done;
      List.rev !acc
  in
  let eval i case_seed =
    on_case i;
    Profile.span "fuzz.case" @@ fun () ->
    Metrics.incr m_cases;
    let d = generate options case_seed in
    match check (Gen.to_mig d) with [] -> None | _ :: _ -> Some d
  in
  let raw =
    match pool with
    | Some p -> Plim_par.mapi p ~f:eval seeds
    | None -> List.mapi eval seeds
  in
  let counterexamples = ref [] in
  List.iteri
    (fun i (case_seed, found) ->
      match found with
      | None -> ()
      | Some d ->
        Metrics.incr m_counterexamples;
        let fails d = check (Gen.to_mig d) <> [] in
        let minimal, shrink_steps =
          if options.shrink then shrink_to_minimal ~fails d else (d, 0)
        in
        Metrics.incr ~by:shrink_steps m_shrink_steps;
        let mig = Gen.to_mig minimal in
        let failures = check mig in
        let path =
          Option.map
            (fun dir ->
              Corpus.save ~dir
                ~meta:
                  ([ Printf.sprintf "found-by: fuzz seed %d, case %d (case-seed %d)"
                       options.seed i case_seed;
                     Printf.sprintf "shrink-steps: %d" shrink_steps ]
                  @ List.map
                      (fun f -> "failure: " ^ Check.failure_to_string f)
                      failures)
                mig)
            options.corpus_dir
        in
        counterexamples :=
          { run_index = i; case_seed; desc = minimal; failures; shrink_steps; path }
          :: !counterexamples)
    (List.combine seeds raw);
  { cases = List.length seeds; counterexamples = List.rev !counterexamples }
