(* Accelerated-time extrapolation and horizon-campaign tests.

   The closed-form layer (Lifetime.fast_forward_into and friends) is checked
   against brute-force replay; the Horizon driver is checked for its
   headline properties — half-life monotone non-increasing in the fault
   rate, the combined strategy strictly outliving the unmanaged one, and
   byte-identical rows at every -j width. *)

module Lifetime = Plim_stats.Lifetime
module Horizon = Plim_serve.Horizon
module Campaign = Plim_machine.Campaign
module Leveling = Plim_rram.Leveling
module Json = Plim_telemetry.Json

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let qc = QCheck_alcotest.to_alcotest

(* --- extrapolation math ------------------------------------------------- *)

(* [Lifetime.fast_forward_into] on a copy of [wear]. *)
let fast_forward ~epochs ~wear ~rate =
  let w = Array.copy wear in
  Lifetime.fast_forward_into ~epochs ~wear:w ~rate;
  w

(* integer-valued wear/rate arrays: fast_forward over k epochs must equal
   k single-epoch steps exactly (all sums stay in the float-exact range) *)
let fast_forward_matches_replay =
  QCheck.Test.make ~count:200 ~name:"fast_forward = iterated single-epoch replay"
    QCheck.(pair (int_range 0 40) (list_of_size (QCheck.Gen.int_range 1 12)
                                     (pair (int_range 0 50) (int_range 0 50))))
    (fun (k, cells) ->
      let wear = Array.of_list (List.map (fun (w, _) -> float_of_int w) cells) in
      let rate = Array.of_list (List.map (fun (_, r) -> float_of_int r) cells) in
      let direct = fast_forward ~epochs:(float_of_int k) ~wear ~rate in
      let stepped = ref wear in
      for _ = 1 to k do
        stepped := fast_forward ~epochs:1.0 ~wear:!stepped ~rate
      done;
      direct = !stepped)

let epochs_to_threshold_is_first_crossing =
  QCheck.Test.make ~count:200 ~name:"epochs_to_threshold is the first crossing"
    QCheck.(pair (int_range 1 500) (list_of_size (QCheck.Gen.int_range 1 12)
                                      (pair (int_range 0 400) (int_range 0 9))))
    (fun (threshold_i, cells) ->
      let threshold = float_of_int threshold_i in
      let wear = Array.of_list (List.map (fun (w, _) -> float_of_int w) cells) in
      let rate = Array.of_list (List.map (fun (_, r) -> float_of_int r) cells) in
      let e = Lifetime.epochs_to_threshold ~threshold ~wear ~rate in
      let reference =
        Array.to_list (Array.mapi (fun i w ->
            if w >= threshold then 0.0
            else if rate.(i) > 0.0 then (threshold -. w) /. rate.(i)
            else infinity) wear)
        |> List.fold_left min infinity
      in
      if e <> reference then false
      else if e = infinity || e = 0.0 then true
      else begin
        (* at the crossing: no cell is past the threshold, some cell is on it *)
        let advanced = fast_forward ~epochs:e ~wear ~rate in
        Array.for_all (fun w -> w < threshold +. 1e-9) advanced
        && Array.exists (fun w -> w >= threshold -. 1e-9) advanced
      end)

let test_fast_forward_edges () =
  let wear = [| 1.0; 2.0 |] and rate = [| 3.0; 0.0 |] in
  Alcotest.(check (array (float 0.0))) "zero epochs is identity" wear
    (fast_forward ~epochs:0.0 ~wear ~rate);
  Alcotest.(check (array (float 0.0))) "two epochs" [| 7.0; 2.0 |]
    (fast_forward ~epochs:2.0 ~wear ~rate);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Lifetime.fast_forward_into: wear and rate lengths differ")
    (fun () -> ignore (fast_forward ~epochs:1.0 ~wear ~rate:[| 1.0 |]));
  Alcotest.check_raises "negative epochs"
    (Invalid_argument "Lifetime.fast_forward_into: negative epochs")
    (fun () -> ignore (fast_forward ~epochs:(-1.0) ~wear ~rate))

let test_epochs_to_threshold_edges () =
  let t = Lifetime.epochs_to_threshold ~threshold:10.0 in
  check_bool "already over threshold" true
    (t ~wear:[| 11.0; 0.0 |] ~rate:[| 0.0; 1.0 |] = 0.0);
  (* the documented contract: a bare IEEE infinity — not nan, not a
     sentinel — whenever no cell can ever reach the threshold *)
  check_bool "no positive rate" true
    (t ~wear:[| 1.0; 2.0 |] ~rate:[| 0.0; 0.0 |] = infinity);
  check_bool "empty arrays" true (t ~wear:[||] ~rate:[||] = infinity);
  check_bool "infinity composes with min" true
    (Float.min (t ~wear:[||] ~rate:[||]) 7.0 = 7.0);
  Alcotest.(check (float 1e-12)) "simple crossing" 4.0
    (t ~wear:[| 2.0 |] ~rate:[| 2.0 |])

(* the -1 JSON sentinel is the serialization of that bare infinity (and
   of None): Horizon.sentinel_epochs is the one mapping every emitter
   uses *)
let test_sentinel_epochs () =
  Alcotest.(check (float 0.0)) "finite passes through" 42.5
    (Horizon.sentinel_epochs (Some 42.5));
  Alcotest.(check (float 0.0)) "zero passes through" 0.0
    (Horizon.sentinel_epochs (Some 0.0));
  Alcotest.(check (float 0.0)) "None is -1" (-1.0)
    (Horizon.sentinel_epochs None);
  Alcotest.(check (float 0.0)) "infinity is -1" (-1.0)
    (Horizon.sentinel_epochs (Some infinity));
  Alcotest.(check (float 0.0)) "neg_infinity is -1" (-1.0)
    (Horizon.sentinel_epochs (Some neg_infinity));
  Alcotest.(check (float 0.0)) "nan is -1" (-1.0)
    (Horizon.sentinel_epochs (Some Float.nan))

let test_leveled_rate () =
  let rate ~overhead ~cells ~total =
    Leveling.cell_rate_bound Leveling.Start_gap ~overhead ~cells ~total ~hottest:0.0
  in
  Alcotest.(check (float 1e-12)) "uniform split" 25.0
    (rate ~overhead:0.0 ~cells:4 ~total:100.0);
  Alcotest.(check (float 1e-12)) "overhead scales" 27.5
    (rate ~overhead:0.1 ~cells:4 ~total:100.0);
  Alcotest.check_raises "zero cells refused"
    (Invalid_argument "Leveling.leveled_rate: cells must be positive")
    (fun () -> ignore (rate ~overhead:0.0 ~cells:0 ~total:1.0))

let test_overhead () =
  (* the composed form, bit for bit: pinned rows depend on its rounding *)
  Alcotest.(check (float 0.0)) "start-gap" 0.010000000000000009
    (Leveling.overhead Leveling.Start_gap ~psi:100 ~period:1 ~lines:7);
  Alcotest.(check (float 0.0)) "none" 0.0
    (Leveling.overhead Leveling.No_leveling ~psi:100 ~period:1 ~lines:7);
  Alcotest.(check (float 0.0)) "both compound"
    ((1.01 *. 1.5) -. 1.0)
    (Leveling.overhead Leveling.Start_gap_wolfram ~psi:100 ~period:10 ~lines:5);
  List.iter
    (fun s ->
      Alcotest.check_raises (Leveling.name s ^ " psi 0")
        (Invalid_argument "Leveling: psi must be positive") (fun () ->
          ignore (Leveling.overhead s ~psi:0 ~period:1 ~lines:1));
      Alcotest.check_raises (Leveling.name s ^ " period 0")
        (Invalid_argument "Leveling: re-key period must be positive") (fun () ->
          ignore (Leveling.overhead s ~psi:1 ~period:0 ~lines:1)))
    Leveling.all

let test_half_life () =
  let traj = [ (0.0, 1.0); (10.0, 0.8); (20.0, 0.5); (30.0, 0.2) ] in
  check_bool "first crossing" true
    (Lifetime.half_life ~initial:1.0 traj = Some 20.0);
  check_bool "never crosses" true
    (Lifetime.half_life ~initial:1.0 [ (0.0, 1.0); (5.0, 0.6) ] = None);
  check_bool "empty trajectory" true (Lifetime.half_life ~initial:1.0 [] = None)

(* --- closed-form stationary rates vs actual replay ---------------------- *)

(* the horizon model treats a levelled layer as uniform-with-overhead
   (Leveling.line_rates); replaying the real layers must match that
   closed form on the mean and stay near-uniform on the max.  Columns:
   strategy, per-execution writes, psi, re-key period, executions, mean
   tolerance, max/mean bound. *)
let closed_form_cases =
  [ ("start-gap", Leveling.Start_gap, [| 5; 3; 0; 1; 0; 0; 2; 0 |], 10, 50_000,
     2_000, 0.02, 1.15);
    ("wolfram", Leveling.Wolfram_remap, [| 50; 1; 1; 1 |], 100, 200, 800, 0.05, 1.5);
    ("start_gap+wolfram", Leveling.Start_gap_wolfram, [| 50; 1; 1; 1 |], 10, 200,
     800, 0.05, 1.5) ]

let test_replay_matches_closed_form
    (_, strategy, per_exec, psi, period, executions, tolerance, max_mean) () =
  let n = Array.length per_exec in
  let counts = Leveling.replay ~psi ~period strategy ~executions per_exec in
  let cells = Leveling.lines strategy n in
  check_int "physical lines" cells (Array.length counts);
  let overhead = Leveling.overhead strategy ~psi ~period ~lines:n in
  let predicted =
    (Leveling.line_rates strategy ~overhead ~cells
       (Array.map (( * ) executions) per_exec)).(0)
  in
  let mean = float_of_int (Array.fold_left ( + ) 0 counts) /. float_of_int cells in
  check_bool
    (Printf.sprintf "mean %.1f within %g%% of closed form %.1f" mean
       (100.0 *. tolerance) predicted)
    true
    (abs_float (mean -. predicted) /. predicted < tolerance);
  let mx = float_of_int (Array.fold_left max 0 counts) in
  check_bool (Printf.sprintf "near-uniform: max/mean %.3f" (mx /. mean)) true
    (mx /. mean < max_mean)

(* the certificate's per-cell bound must dominate every per-line rate the
   simulator can apply, for any measured delta *)
let line_rates_within_cell_bound =
  QCheck.Test.make ~count:300 ~name:"line rates within the certificate bound"
    QCheck.(triple (int_range 0 3) (int_range 1 200)
              (list_of_size Gen.(int_range 1 12) (int_range 0 1000)))
    (fun (k, psi, delta) ->
      let strategy = List.nth Leveling.all k in
      let delta = Array.of_list delta in
      let cells = Leveling.lines strategy (Array.length delta) in
      let overhead =
        Leveling.overhead strategy ~psi ~period:500 ~lines:(Array.length delta)
      in
      let rates = Leveling.line_rates strategy ~overhead ~cells delta in
      let total = Array.fold_left (fun acc d -> acc +. float_of_int d) 0.0 delta in
      let hottest = float_of_int (Array.fold_left max 0 delta) in
      Array.fold_left Float.max 0.0 rates
      <= Leveling.cell_rate_bound strategy ~overhead ~cells ~total ~hottest)

(* --- endurance campaigns through the levelling stack -------------------- *)

let test_campaign_extends_lifetime strategy () =
  let g = Plim_benchgen.Arith.multiplier ~width:4 in
  let p = (Plim_core.Pipeline.compile Plim_core.Pipeline.naive g).Plim_core.Pipeline.program in
  (* long enough a life for WoLFRaM's 50 000-write re-key period to fire
     before the first cell fails *)
  let endurance = 20_000 in
  let plain = Campaign.run_until_failure ~endurance ~max_executions:5000 p in
  let levelled = Campaign.run_until_failure ~strategy ~psi:50 ~endurance ~max_executions:5000 p in
  check_bool
    (Printf.sprintf "%s %d >= plain %d executions" (Leveling.name strategy)
       levelled.Campaign.executions_completed plain.Campaign.executions_completed)
    true
    (levelled.Campaign.executions_completed >= plain.Campaign.executions_completed);
  (* levelling copies are charged as real writes *)
  check_bool "copy traffic counted" true
    (levelled.Campaign.write_total > plain.Campaign.write_total
     || not levelled.Campaign.failed)

(* --- horizon campaigns -------------------------------------------------- *)

(* a small fast grid config: the default fleet and mix, shorter horizon *)
let hz_config = Horizon.default_config

let test_strategy_names_round_trip () =
  List.iter
    (fun s ->
      match Horizon.strategy_of_string (Horizon.strategy_name s) with
      | Ok s' -> check_bool (Horizon.strategy_name s) true (s = s')
      | Error e -> Alcotest.failf "round trip failed: %s" e)
    Horizon.all_strategies;
  check_bool "junk rejected" true
    (Result.is_error (Horizon.strategy_of_string "no-such-strategy"))

let opt_inf = function None -> infinity | Some e -> e

let test_half_life_monotone_in_fault_rate () =
  let rates = [ 0.0; 0.02; 0.05 ] in
  let cells =
    Horizon.grid hz_config ~strategies:[ Horizon.No_leveling ] ~fault_rates:rates
  in
  let half_lives =
    List.map (fun (_, _, r) -> opt_inf r.Horizon.r_half_life) cells
  in
  (match half_lives with
  | [ h0; _; _ ] -> check_bool "fault-free half-life exists" true (h0 < infinity)
  | _ -> Alcotest.fail "expected three grid cells");
  let rec monotone = function
    | a :: (b :: _ as rest) ->
      check_bool
        (Printf.sprintf "half-life %.1f >= %.1f at the higher rate" a b)
        true (a >= b);
      monotone rest
    | _ -> ()
  in
  monotone half_lives

let test_combined_outlives_none () =
  let cells =
    Horizon.grid hz_config
      ~strategies:[ Horizon.No_leveling; Horizon.Start_gap_wolfram ]
      ~fault_rates:[ 0.0; 0.02 ]
  in
  let find s rate =
    let _, _, r =
      List.find (fun (s', rate', _) -> s' = s && rate' = rate) cells
    in
    r
  in
  List.iter
    (fun rate ->
      let base = find Horizon.No_leveling rate in
      let both = find Horizon.Start_gap_wolfram rate in
      check_bool
        (Printf.sprintf "ttff at rate %g: combined > none" rate)
        true
        (opt_inf both.Horizon.r_ttff > opt_inf base.Horizon.r_ttff
         || base.Horizon.r_ttff = None);
      check_bool
        (Printf.sprintf "half-life at rate %g: combined > none" rate)
        true
        (opt_inf both.Horizon.r_half_life > opt_inf base.Horizon.r_half_life
         || base.Horizon.r_half_life = None))
    [ 0.0; 0.02 ]

(* the pinned replay gate: the whole grid, rows rendered to JSON, must be
   byte-identical between a sequential run and a 4-domain pool *)
let test_grid_byte_identical_across_jobs () =
  let rates = [ 0.0; 0.01 ] in
  let render cells =
    List.map (fun (_, _, r) -> Json.write (Horizon.row_json r)) cells
  in
  let seq =
    render (Horizon.grid hz_config ~strategies:Horizon.all_strategies
              ~fault_rates:rates)
  in
  let par =
    Plim_par.with_pool ~jobs:4 (fun pool ->
        render (Horizon.grid ~pool hz_config ~strategies:Horizon.all_strategies
                  ~fault_rates:rates))
  in
  check_int "same row count" (List.length seq) (List.length par);
  List.iteri
    (fun i (a, b) ->
      Alcotest.(check string) (Printf.sprintf "row %d identical" i) a b)
    (List.combine seq par)

let test_row_json_shape () =
  let cells =
    Horizon.grid hz_config ~strategies:[ Horizon.Start_gap ] ~fault_rates:[ 0.0 ]
  in
  match cells with
  | [ (_, _, r) ] ->
    let row = Json.write (Horizon.row_json r) in
    List.iter
      (fun needle ->
        check_bool needle true
          (Helpers.contains ~needle row))
      [ "\"schema\":\"plim-horizon/v1\""; "\"strategy\":\"start_gap\"";
        "\"ttff_epochs\""; "\"half_life_epochs\""; "\"proj_ttff_years\"";
        "\"trajectory\"" ]
  | _ -> Alcotest.fail "expected one grid cell"

(* the power-on scrub must leave every logical line of a surviving shard
   on its own live physical line; the rates span shards that survive
   with remaps and shards the scrub kills *)
let test_power_on_lands_on_live_lines () =
  let survived = ref 0 and killed = ref 0 and remapped = ref 0 in
  List.iter
    (fun (rate, model_spares) ->
      let cfg =
        { hz_config with Horizon.fault_spec = Horizon.spec_of_rate rate; model_spares }
      in
      for id = 0 to 9 do
        let cells = 40 in
        let po = Horizon.power_on cfg ~id ~cells in
        if not po.Horizon.alive then incr killed
        else begin
          incr survived;
          let used = Hashtbl.create cells in
          for l = 0 to cells - 1 do
            let p = Plim_fault.Remap.physical po.Horizon.remap l in
            if p <> l then incr remapped;
            check_bool (Printf.sprintf "line %d on a live line" l) false
              po.Horizon.dead.(p);
            check_bool (Printf.sprintf "line %d on its own line" l) false
              (Hashtbl.mem used p);
            Hashtbl.add used p ()
          done
        end
      done)
    [ (0.0, 8); (0.02, 8); (0.05, 4); (0.1, 8); (0.3, 2) ];
  check_bool "some shards survive" true (!survived > 0);
  check_bool "some shards die" true (!killed > 0);
  check_bool "some survivors were remapped" true (!remapped > 0)

let () =
  Alcotest.run "lifetime"
    [ ( "extrapolation",
        [ qc fast_forward_matches_replay;
          qc epochs_to_threshold_is_first_crossing;
          Alcotest.test_case "fast_forward edge cases" `Quick test_fast_forward_edges;
          Alcotest.test_case "epochs_to_threshold edge cases" `Quick
            test_epochs_to_threshold_edges;
          Alcotest.test_case "sentinel_epochs encoding" `Quick
            test_sentinel_epochs;
          Alcotest.test_case "leveled_rate" `Quick test_leveled_rate;
          Alcotest.test_case "overhead composition" `Quick test_overhead;
          Alcotest.test_case "half_life" `Quick test_half_life ] );
      ( "closed-form-vs-replay",
        List.map
          (fun ((label, _, _, _, _, _, _, _) as case) ->
            Alcotest.test_case (label ^ " replay matches closed form") `Quick
              (test_replay_matches_closed_form case))
          closed_form_cases
        @ [ qc line_rates_within_cell_bound ] );
      ( "campaign",
        List.map
          (fun (label, strategy) ->
            Alcotest.test_case (label ^ " extends lifetime") `Slow
              (test_campaign_extends_lifetime strategy))
          [ ("start-gap", Leveling.Start_gap); ("wolfram", Leveling.Wolfram_remap);
            ("start_gap+wolfram", Leveling.Start_gap_wolfram) ] );
      ( "horizon",
        [ Alcotest.test_case "strategy names round-trip" `Quick
            test_strategy_names_round_trip;
          Alcotest.test_case "half-life monotone in fault rate" `Quick
            test_half_life_monotone_in_fault_rate;
          Alcotest.test_case "start_gap+wolfram outlives none" `Quick
            test_combined_outlives_none;
          Alcotest.test_case "grid byte-identical at -j1 and -j4" `Quick
            test_grid_byte_identical_across_jobs;
          Alcotest.test_case "row JSON shape" `Quick test_row_json_shape;
          Alcotest.test_case "power-on lands on live lines" `Quick
            test_power_on_lands_on_live_lines ] ) ]
