(* Static endurance certification tests.

   Three layers: the race detector must accept every scheduler-produced
   grouping and reject every hazard-injected mutant (also rejected,
   independently, by Geometry.validate — two code paths, one verdict);
   the wear-bound certificates must bracket what the horizon simulator
   actually measures, on both a compile-heavy grid (one-sided brackets)
   and an exec-only grid (finite two-sided brackets); and the
   plim-cert/v1 rows must keep the -1-encodes-unbounded convention. *)

module C = Plim_certify
module Race = Plim_certify.Race
module H = Plim_serve.Horizon
module Workload = Plim_serve.Workload
module Geometry = Plim_geometry
module Program = Plim_isa.Program
module I = Plim_isa.Instruction
module Pipeline = Plim_core.Pipeline
module Suite = Plim_benchgen.Suite
module Json = Plim_telemetry.Json

let check_bool = Alcotest.(check bool)
let qc = QCheck_alcotest.to_alcotest

(* the first four small-suite circuits, compiled once *)
let programs =
  lazy
    (List.map
       (fun spec ->
         (Pipeline.compile Pipeline.endurance_full (spec.Suite.build ()))
           .Pipeline.program)
       Helpers.specs4)

let grids_for p =
  let n = Program.num_cells p in
  let rec square c = if c * c >= n then c else square (c + 1) in
  List.sort_uniq compare [ 1; 4; square 1 ]
  |> List.map (fun cols -> Geometry.grid_for ~cols ~num_cells:n)

(* --- race detector: acceptance ------------------------------------------ *)

let test_detector_accepts_scheduler () =
  List.iter
    (fun p ->
      List.iter
        (fun grid ->
          match Geometry.schedule grid p with
          | Error e -> Alcotest.failf "schedule: %s" e
          | Ok sched -> (
            match Race.check_schedule p sched with
            | Ok () -> ()
            | Error e ->
              Alcotest.failf "detector rejected scheduler output on %s: %s"
                (Geometry.to_string grid) e))
        (grids_for p))
    (Lazy.force programs)

(* COPY (Helpers.copy_program): 0 defines cell 1, 1 reads and redefines
   it — exactly one RAW and one WAW edge, no WAR (the overwriting use is
   the read-modify-write of instruction 1 itself) *)
let test_edges_of_copy () =
  let p = Helpers.copy_program () in
  let edges = Race.edges p in
  check_bool "two edges" true (List.length edges = 2);
  List.iter
    (fun e ->
      check_bool "0 before 1 on cell 1" true
        (e.Race.e_before = 0 && e.Race.e_after = 1 && e.Race.e_cell = 1))
    edges;
  let hazards = List.map (fun e -> Race.hazard_name e.Race.e_hazard) edges in
  check_bool "RAW present" true (List.mem "RAW" hazards);
  check_bool "WAW present" true (List.mem "WAW" hazards)

let test_check_groups_verdicts () =
  let p = Helpers.copy_program () in
  let ok groups = Race.check_groups p groups = Ok () in
  check_bool "serial singletons" true (ok [| [| 0 |]; [| 1 |] |]);
  check_bool "empty groups permitted" true (ok [| [| 0 |]; [||]; [| 1 |] |]);
  check_bool "merged group is a race" false (ok [| [| 0; 1 |] |]);
  check_bool "reversed order is a race" false (ok [| [| 1 |]; [| 0 |] |]);
  check_bool "duplicate index rejected" false (ok [| [| 0 |]; [| 0; 1 |] |]);
  check_bool "missing index rejected" false (ok [| [| 0 |] |]);
  check_bool "out-of-range index rejected" false
    (ok [| [| 0 |]; [| 1 |]; [| 5 |] |])

let test_use_before_def_not_certifiable () =
  (* reads cell 0, which is neither a PI nor ever written *)
  let p =
    Program.make
      ~instrs:[| I.rm3 ~a:(I.Cell 0) ~b:(I.Const false) ~z:1 |]
      ~num_cells:2 ~pi_cells:[||]
      ~po_cells:[| ("y", 1) |]
  in
  match Race.check_groups p [| [| 0 |] |] with
  | Ok () -> Alcotest.fail "use-before-def program accepted"
  | Error e -> check_bool "mentions certifiability" true
                 (Helpers.contains ~needle:"not certifiable" e)

(* --- race detector: adversarial mutants --------------------------------- *)

(* Perturb a valid schedule along one of its own hazard edges — swap the
   endpoints across their groups, or merge the two groups — and demand
   that BOTH independent checkers reject the mutant.  Geometry.validate
   scans the flat stream (z always read); the race detector walks the
   def-use chains; an edge violated in group order trips both. *)
let mutation_rejected =
  QCheck.Test.make ~count:120
    ~name:"hazard-injected mutants rejected by validate and race detector"
    QCheck.(triple (int_range 0 3) bool (int_range 0 10_000))
    (fun (pidx, merge, pick) ->
      let p = List.nth (Lazy.force programs) pidx in
      let grid = Geometry.grid_for ~cols:4 ~num_cells:(Program.num_cells p) in
      match Geometry.schedule grid p with
      | Error _ -> false (* suite programs always fit their own grid *)
      | Ok sched ->
        let groups = sched.Geometry.s_groups in
        let group_of = Array.make (Program.length p) (-1) in
        Array.iteri
          (fun gi g -> Array.iter (fun i -> group_of.(i) <- gi) g)
          groups;
        (match Race.edges p with
        | [] -> true (* nothing to violate *)
        | edges ->
          let e = List.nth edges (pick mod List.length edges) in
          let b = e.Race.e_before and a = e.Race.e_after in
          let gb = group_of.(b) and ga = group_of.(a) in
          if gb >= ga then false (* scheduler must order every edge *)
          else begin
            let mutant_groups =
              if merge then begin
                let merged = Array.append groups.(gb) groups.(ga) in
                Array.sort compare merged;
                Array.of_list
                  (List.filteri (fun i _ -> i <> ga) (Array.to_list groups)
                  |> List.mapi (fun i g -> if i = gb then merged else g))
              end
              else begin
                let gs = Array.map Array.copy groups in
                let pos g x =
                  let p = ref (-1) in
                  Array.iteri (fun i v -> if v = x then p := i) g;
                  !p
                in
                gs.(gb).(pos gs.(gb) b) <- a;
                gs.(ga).(pos gs.(ga) a) <- b;
                gs
              end
            in
            let mutant = Geometry.of_groups grid p mutant_groups in
            Result.is_error (Geometry.validate p mutant)
            && Result.is_error (Race.check_schedule p mutant)
          end))

(* --- wear-bound certificates -------------------------------------------- *)

let cert_config ~compile_ratio =
  let base = H.default_config in
  { base with
    H.mix = { Helpers.mix4 with Workload.compile_ratio };
    endurance = 5e4;
    sample_every = 500.0;
    max_epochs = 10_000.0 }

let rates = [ 0.0; 0.02 ]

let gate_grid cfg =
  let cells = H.grid cfg ~strategies:H.all_strategies ~fault_rates:rates in
  let certs = C.grid cfg ~strategies:H.all_strategies ~fault_rates:rates in
  List.iter
    (fun (_, _, r) ->
      match C.find certs (H.label r) with
      | None -> Alcotest.failf "%s: no certificate" (H.label r)
      | Some c -> (
        match C.check_result c r with
        | Ok () -> ()
        | Error e -> Alcotest.failf "%s: %s" (H.label r) e))
    cells;
  (cells, certs)

(* default mix: compile_ratio > 0, so zero-wear epochs are possible and
   the upper ends must be honestly unbounded *)
let test_bracket_compile_heavy () =
  let _, certs = gate_grid (cert_config ~compile_ratio:0.05) in
  List.iter
    (fun (_, _, c) ->
      check_bool "writes lower collapses to 0" true
        (c.C.c_writes.C.lower = 0.0);
      check_bool "ttff upper unbounded" true (c.C.c_ttff.C.upper = infinity);
      check_bool "ttff lower finite positive" true
        (Float.is_finite c.C.c_ttff.C.lower && c.C.c_ttff.C.lower > 0.0))
    certs

(* exec-only mix: every sampled epoch wears, so both ends are finite and
   the simulated lifetimes sit strictly inside a real bracket *)
let test_bracket_exec_only () =
  let cells, certs = gate_grid (cert_config ~compile_ratio:0.0) in
  List.iter
    (fun (_, _, c) ->
      check_bool "writes lower positive" true (c.C.c_writes.C.lower > 0.0);
      check_bool "ttff bracket finite" true
        (Float.is_finite c.C.c_ttff.C.lower
         && Float.is_finite c.C.c_ttff.C.upper);
      check_bool "bracket ordered" true
        (c.C.c_ttff.C.lower <= c.C.c_ttff.C.upper
         && c.C.c_half_life.C.lower <= c.C.c_half_life.C.upper))
    certs;
  (* the campaign must actually have observed the events the finite
     brackets promise *)
  List.iter
    (fun (_, _, r) ->
      check_bool (H.label r ^ ": ttff observed") true (r.H.r_ttff <> None))
    cells

let test_row_json_shape () =
  match
    C.grid (cert_config ~compile_ratio:0.05) ~strategies:[ H.Start_gap ]
      ~fault_rates:[ 0.0 ]
  with
  | [ (_, _, c) ] ->
    let row = Json.write (C.row_json c) in
    List.iter
      (fun needle -> check_bool needle true (Helpers.contains ~needle row))
      [ "\"schema\":\"plim-cert/v1\""; "\"strategy\":\"start_gap\"";
        "\"writes_lower\":0"; "\"ttff_upper\":-1"; "\"half_life_upper\":-1";
        "\"programs\":[" ];
    check_bool "label override" true
      (Helpers.contains ~needle:"\"label\":\"start_gap/r0/exec\""
         (Json.write (C.row_json ~label:(C.label c ^ "/exec") c)))
  | _ -> Alcotest.fail "expected one grid cell"

let test_check_row_json_round_trip () =
  let cfg = cert_config ~compile_ratio:0.0 in
  let certs = C.grid cfg ~strategies:[ H.No_leveling ] ~fault_rates:[ 0.0 ] in
  match H.grid cfg ~strategies:[ H.No_leveling ] ~fault_rates:[ 0.0 ] with
  | [ (_, _, r) ] -> (
    let row = Json.parse_exn (Json.write (H.row_json r)) in
    (match C.check_row_json certs row with
    | Ok lbl -> check_bool "label" true (lbl = H.label r)
    | Error e -> Alcotest.failf "row escaped: %s" e);
    (* suffixed variant rows resolve to their base certificate *)
    let suffixed =
      Json.parse_exn (Json.write (H.row_json ~label:(H.label r ^ "/exec") r))
    in
    check_bool "prefix lookup" true
      (Result.is_ok (C.check_row_json certs suffixed));
    (* a campaign at another endurance must not silently pass *)
    let other =
      C.grid { cfg with H.endurance = 2e4 } ~strategies:[ H.No_leveling ]
        ~fault_rates:[ 0.0 ]
    in
    match C.check_row_json other row with
    | Ok _ -> Alcotest.fail "endurance mismatch accepted"
    | Error e ->
      check_bool "names the mismatch" true
        (Helpers.contains ~needle:"endurance" e))
  | _ -> Alcotest.fail "expected one grid cell"

(* bad levelling parameters are refused up front by both sides of the
   gate, never certified into an inf/nan bracket *)
let test_rejects_bad_leveling_params () =
  let cfg = cert_config ~compile_ratio:0.05 in
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (what, bad) ->
      check_bool ("Horizon.run rejects " ^ what) true
        (raises (fun () -> ignore (H.run bad)));
      check_bool ("certify rejects " ^ what) true
        (raises (fun () -> ignore (C.certify bad))))
    [ ("psi = 0", { cfg with H.strategy = H.Start_gap; psi = 0 });
      ("rekey period = 0", { cfg with H.wolfram_period = 0 });
      ("shards = 0",
       { cfg with H.server = { cfg.H.server with Plim_serve.Server.shards = 0 } }) ]

let () =
  Alcotest.run "certify"
    [ ( "race-detector",
        [ Alcotest.test_case "accepts all scheduler output" `Quick
            test_detector_accepts_scheduler;
          Alcotest.test_case "edges of the COPY program" `Quick
            test_edges_of_copy;
          Alcotest.test_case "check_groups verdicts" `Quick
            test_check_groups_verdicts;
          Alcotest.test_case "use-before-def not certifiable" `Quick
            test_use_before_def_not_certifiable;
          qc mutation_rejected ] );
      ( "wear-bounds",
        [ Alcotest.test_case "simulator inside bracket (compile-heavy)" `Quick
            test_bracket_compile_heavy;
          Alcotest.test_case "simulator inside bracket (exec-only)" `Quick
            test_bracket_exec_only;
          Alcotest.test_case "plim-cert/v1 row shape" `Quick
            test_row_json_shape;
          Alcotest.test_case "check_row_json round trip" `Quick
            test_check_row_json_round_trip;
          Alcotest.test_case "bad levelling parameters rejected" `Quick
            test_rejects_bad_leveling_params ] ) ]
