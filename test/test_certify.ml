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

(* Cell 0 is read by instruction 0 before anything defines it; the
   placeholder def the analyzer installs there orders nothing, so the
   would-be WAR edge 0 -> 1 on cell 0 is absent.  Cell 1's PI load is
   read and overwritten by instruction 0 itself: no edge either. *)
let test_edges_skip_placeholder () =
  let p =
    Program.make
      ~instrs:
        [| I.rm3 ~a:(I.Cell 0) ~b:(I.Const false) ~z:1;
           I.rm3 ~a:(I.Const true) ~b:(I.Const false) ~z:0;
           I.rm3 ~a:(I.Cell 0) ~b:(I.Const false) ~z:1 |]
      ~num_cells:2 ~pi_cells:[| ("x", 1) |]
      ~po_cells:[| ("y", 1) |]
  in
  let show e =
    Printf.sprintf "%s %d->%d @%d" (Race.hazard_name e.Race.e_hazard)
      e.Race.e_before e.Race.e_after e.Race.e_cell
  in
  Alcotest.(check (list string)) "edges"
    [ "RAW 1->2 @0"; "RAW 0->2 @1"; "WAW 0->2 @1" ]
    (List.map show (Race.edges p))

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

(* Mutate a valid schedule without breaking coverage — swap two adjacent
   groups, merge two groups, or move one instruction to another group —
   and demand check_groups' exact verdict: the message of the first edge
   of [Race.edges], in its order, whose groups do not increase. *)
let first_race_verdict =
  QCheck.Test.make ~count:300
    ~name:"check_groups reports the first violated edge of Race.edges"
    QCheck.(quad (int_range 0 3) (int_range 0 2) (int_range 0 100_000)
              (int_range 0 100_000))
    (fun (pidx, kind, x, y) ->
      let p = List.nth (Lazy.force programs) pidx in
      let grid = Geometry.grid_for ~cols:4 ~num_cells:(Program.num_cells p) in
      match Geometry.schedule grid p with
      | Error _ -> false
      | Ok sched ->
        let gs = Array.to_list sched.Geometry.s_groups in
        let n = List.length gs in
        let i = x mod n and j = y mod n in
        let groups =
          Array.of_list
            (match kind with
            | 0 ->
              let i = min i (n - 2) in
              List.mapi
                (fun k g ->
                  if k = i then List.nth gs (i + 1)
                  else if k = i + 1 then List.nth gs i
                  else g)
                gs
            | 1 ->
              let lo = min i j and hi = max i j in
              List.filteri (fun k _ -> k <> hi || lo = hi) gs
              |> List.mapi (fun k g ->
                     if k = lo && lo <> hi then Array.append g (List.nth gs hi)
                     else g)
            | _ ->
              let v = (List.nth gs i).(0) in
              List.mapi
                (fun k g ->
                  let g = Array.of_list (List.filter (( <> ) v) (Array.to_list g)) in
                  if k = j then Array.append g [| v |] else g)
                gs)
        in
        let group_of = Array.make (Program.length p) (-1) in
        Array.iteri (fun gi g -> Array.iter (fun v -> group_of.(v) <- gi) g) groups;
        let expected =
          match
            List.find_opt
              (fun e -> group_of.(e.Race.e_before) >= group_of.(e.Race.e_after))
              (Race.edges p)
          with
          | None -> Ok ()
          | Some e ->
            Error
              (Printf.sprintf
                 "race: %s hazard on cell %d — instruction %d (group %d) must \
                  precede instruction %d (group %d)"
                 (Race.hazard_name e.Race.e_hazard) e.Race.e_cell e.Race.e_before
                 group_of.(e.Race.e_before) e.Race.e_after group_of.(e.Race.e_after))
        in
        Race.check_groups p groups = expected)

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
    let row = Helpers.parse_ok (Json.write (H.row_json r)) in
    (match C.check_row_json certs row with
    | Ok lbl -> check_bool "label" true (lbl = H.label r)
    | Error e -> Alcotest.failf "row escaped: %s" e);
    (* suffixed variant rows resolve to their base certificate *)
    let suffixed =
      Helpers.parse_ok (Json.write (H.row_json ~label:(H.label r ^ "/exec") r))
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

(* a row whose strategy or fault rate is not its label's cell must not
   pass, whatever its lifetimes *)
let test_check_row_json_identity () =
  let cfg = cert_config ~compile_ratio:0.0 in
  let certs = C.grid cfg ~strategies:[ H.No_leveling ] ~fault_rates:[ 0.0 ] in
  match H.grid cfg ~strategies:[ H.No_leveling ] ~fault_rates:[ 0.0 ] with
  | [ (_, _, r) ] ->
    let forge key v =
      match H.row_json r with
      | Json.Obj kvs ->
        Json.Obj (List.map (fun (k, x) -> (k, if k = key then v else x)) kvs)
      | _ -> Alcotest.fail "row is not an object"
    in
    List.iter
      (fun (key, v, needle) ->
        match C.check_row_json certs (forge key v) with
        | Ok _ -> Alcotest.failf "forged %s accepted" key
        | Error e ->
          check_bool ("names the forged " ^ key) true
            (Helpers.contains ~needle e))
      [ ("strategy", Json.Str "start_gap", "strategy");
        ("fault_rate", Json.Num 0.5, "fault-rate") ]
  | _ -> Alcotest.fail "expected one grid cell"

(* every shape --check accepts, read through the one reader *)
let read_rows_text text =
  let path = Filename.temp_file "rows" ".json" in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let rows = C.read_rows path in
  Sys.remove path;
  Result.map (List.map Json.write) rows

let row_text l = Printf.sprintf {|{"schema":"plim-horizon/v1","label":"%s"}|} l

let read_rows_shapes =
  let a = row_text "a" and b = row_text "b" in
  List.map
    (fun (shape, text, expected) ->
      Alcotest.test_case ("read_rows: " ^ shape) `Quick (fun () ->
          Alcotest.(check (result (list string) string)) shape (Ok expected)
            (read_rows_text text)))
    [ ("results object",
       Printf.sprintf {|{"schema":"plim-bench/v1","horizon":[%s,%s]}|} a b,
       [ a; b ]);
      ("bare array", Printf.sprintf "[%s,%s]" a b, [ a; b ]);
      ("JSON lines", Printf.sprintf "%s\n\n%s\n" a b, [ a; b ]);
      ("single row", a ^ "\n", [ a ]) ]

let test_read_rows_malformed_line () =
  match read_rows_text (row_text "a" ^ "\n{\"label\":\n") with
  | Ok _ -> Alcotest.fail "malformed line accepted"
  | Error e ->
    check_bool "names the line" true (Helpers.contains ~needle:"line 2" e)

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
          Alcotest.test_case "edges skip a use-before-def placeholder" `Quick
            test_edges_skip_placeholder;
          qc mutation_rejected; qc first_race_verdict ] );
      ( "wear-bounds",
        [ Alcotest.test_case "simulator inside bracket (compile-heavy)" `Quick
            test_bracket_compile_heavy;
          Alcotest.test_case "simulator inside bracket (exec-only)" `Quick
            test_bracket_exec_only;
          Alcotest.test_case "plim-cert/v1 row shape" `Quick
            test_row_json_shape;
          Alcotest.test_case "check_row_json round trip" `Quick
            test_check_row_json_round_trip;
          Alcotest.test_case "check_row_json checks the row's identity" `Quick
            test_check_row_json_identity;
          Alcotest.test_case "read_rows: malformed line" `Quick
            test_read_rows_malformed_line;
          Alcotest.test_case "bad levelling parameters rejected" `Quick
            test_rejects_bad_leveling_params ]
        @ read_rows_shapes ) ]
