module A = Plim_analyze
module I = Plim_isa.Instruction
module Program = Plim_isa.Program
module Suite = Plim_benchgen.Suite
module Pipeline = Plim_core.Pipeline
module Gen = Plim_check.Gen
module Controller = Plim_machine.Plim_controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(num_cells = 4) ?(pi = [| ("a", 0) |]) ?(po = [| ("y", 1) |]) instrs =
  Program.make ~instrs:(Array.of_list instrs) ~num_cells ~pi_cells:pi ~po_cells:po

let sc v z = I.set_const v z

let rm3 a b z = I.rm3 ~a ~b ~z

let kinds_of a = List.map (fun d -> (d.A.kind, d.A.instr, d.A.cell)) a.A.diagnostics

(* --- def-use IR --------------------------------------------------------- *)

let test_defs () =
  (* i0: y := 1; i1: y := <a, !0, y> *)
  let p = mk ~num_cells:2 [ sc true 1; rm3 (I.Cell 0) (I.Const false) 1 ] in
  let a = A.analyze p in
  Alcotest.(check int) "clean" 0 (List.length a.A.diagnostics);
  match A.defs a with
  | [ pi; d0; d1 ] ->
    check_int "PI cell" 0 pi.A.cell;
    check_int "PI def_at" (-1) pi.A.def_at;
    Alcotest.(check (list int)) "PI read by i1" [ 1 ] pi.A.uses;
    check_bool "PI not live-out" false pi.A.live_out;
    (* set_const does not read z, but the RM3 at i1 reads the old y *)
    Alcotest.(check (list int)) "init value read" [ 1 ] d0.A.uses;
    check_bool "overwritten def not live-out" false d0.A.live_out;
    check_bool "final PO def live-out" true d1.A.live_out;
    Alcotest.(check (list int)) "final def unread" [] d1.A.uses
  | defs -> Alcotest.failf "expected 3 defs, got %d" (List.length defs)

let test_set_const_does_not_read () =
  (* identity RM3 0,0,z DOES read z; the two set_const forms do not.  An
     instruction reads its destination exactly when the def it overwrites
     lists it as a use. *)
  let reads_dest instr =
    match A.defs (A.analyze (mk ~num_cells:2 [ sc true 1; instr ])) with
    | [ _pi; overwritten; _ ] -> overwritten.A.uses = [ 1 ]
    | defs -> Alcotest.failf "expected 3 defs, got %d" (List.length defs)
  in
  check_bool "set 1" false (reads_dest (sc true 1));
  check_bool "set 0" false (reads_dest (sc false 1));
  check_bool "identity 0,0" true (reads_dest (rm3 (I.Const false) (I.Const false) 1));
  check_bool "identity 1,1" true (reads_dest (rm3 (I.Const true) (I.Const true) 1));
  check_bool "cell operand" true (reads_dest (rm3 (I.Cell 0) (I.Const false) 1))

let test_storage () =
  let p = mk ~num_cells:2 [ sc true 1; rm3 (I.Cell 0) (I.Const false) 1 ] in
  let a = A.analyze p in
  (* PI %0 spans [0,1]; init y spans [0,1]; final y live-out spans [1,2] *)
  check_int "total" 3 a.A.storage.A.total_span;
  check_int "max" 1 a.A.storage.A.max_span;
  Alcotest.(check (float 1e-9)) "mean" 1.0 a.A.storage.A.mean_span

(* --- diagnostics, each with its exact instruction index ----------------- *)

let test_use_before_def () =
  let p = mk ~num_cells:3 [ sc true 1; rm3 (I.Cell 2) (I.Const false) 1 ] in
  let a = A.analyze p in
  check_bool "is error" true (A.errors a <> []);
  match kinds_of a with
  | [ (A.Use_before_def, Some 1, 2) ] -> ()
  | _ -> Alcotest.failf "unexpected diagnostics: %s"
           (String.concat "; " (List.map A.diagnostic_to_string a.A.diagnostics))

let test_dead_write () =
  (* i1 writes %2 which nothing ever reads *)
  let p =
    mk ~num_cells:3 [ sc true 1; sc false 2; rm3 (I.Cell 0) (I.Const false) 1 ]
  in
  let a = A.analyze p in
  match kinds_of a with
  | [ (A.Dead_write, Some 1, 2) ] -> ()
  | _ -> Alcotest.failf "unexpected diagnostics: %s"
           (String.concat "; " (List.map A.diagnostic_to_string a.A.diagnostics))

let test_po_clobber () =
  (* i1 computes the output, i2 overwrites it without anything reading it *)
  let p = mk [ sc true 1; rm3 (I.Cell 0) (I.Const false) 1; sc false 1 ] in
  let a = A.analyze p in
  let kinds = kinds_of a in
  check_bool "dead write at 1" true (List.mem (A.Dead_write, Some 1, 1) kinds);
  check_bool "clobber reported at the clobbering instruction" true
    (List.mem (A.Po_clobber, Some 2, 1) kinds)

let leak_program () =
  (* %2 dies at i2; 8 instructions of busy work; fresh %3 opens at i11,
     beyond the one-group grace window *)
  mk ~num_cells:4
    ([ sc true 1; sc true 2; rm3 (I.Cell 2) (I.Const false) 1 ]
     @ List.init 8 (fun _ -> rm3 (I.Cell 0) (I.Const false) 1)
     @ [ sc true 3; rm3 (I.Cell 3) (I.Const false) 1 ])

let test_rram_leak () =
  let a = A.analyze (leak_program ()) in
  (match kinds_of a with
  | [ (A.Rram_leak, Some 11, 2) ] -> ()
  | _ -> Alcotest.failf "unexpected diagnostics: %s"
           (String.concat "; " (List.map A.diagnostic_to_string a.A.diagnostics)));
  check_bool "error when uncapped" true (A.errors a <> []);
  (* under a write cap, retirement makes the gap legitimate: info only *)
  let capped = A.analyze ~max_writes:12 (leak_program ()) in
  check_bool "no errors under cap" true (A.errors capped = []);
  check_bool "still surfaced as info" true
    (List.exists (fun d -> d.A.kind = A.Rram_leak && d.A.severity = A.Info)
       capped.A.diagnostics);
  (* fresh open within the grace window is normal group scheduling *)
  let tight =
    mk ~num_cells:4
      [ sc true 1; sc true 2; rm3 (I.Cell 2) (I.Const false) 1; sc true 3;
        rm3 (I.Cell 3) (I.Const false) 1 ]
  in
  check_int "no leak within grace" 0 (List.length (A.analyze tight).A.diagnostics)

let test_cap_exceeded () =
  let p = leak_program () in
  (* %1 is written at 0,2,3..10,12: the 6th write (cap 5) is instruction 6 *)
  let a = A.analyze ~max_writes:5 p in
  check_bool "cap error at instruction 6" true
    (List.exists
       (fun d -> d.A.kind = A.Cap_exceeded && d.A.instr = Some 6 && d.A.cell = 1)
       a.A.diagnostics);
  check_int "within cap 12" 0
    (List.length
       (List.filter (fun d -> d.A.kind = A.Cap_exceeded)
          (A.analyze ~max_writes:12 p).A.diagnostics))

let test_unused_cell () =
  let p = mk ~num_cells:3 [ sc true 1; rm3 (I.Cell 0) (I.Const false) 1 ] in
  let a = A.analyze p in
  match kinds_of a with
  | [ (A.Unused_cell, None, 2) ] ->
    check_bool "info, not error" true (A.errors a = [])
  | _ -> Alcotest.failf "unexpected diagnostics: %s"
           (String.concat "; " (List.map A.diagnostic_to_string a.A.diagnostics))

(* --- JSON ---------------------------------------------------------------- *)

let test_json () =
  let p =
    mk ~num_cells:3 [ sc true 1; sc false 2; rm3 (I.Cell 0) (I.Const false) 1 ]
  in
  let a = A.analyze p in
  let json = Plim_telemetry.Json.write (A.to_json ~source:"corrupted" p a) in
  let contains needle =
    let n = String.length needle and m = String.length json in
    let rec go i = i + n <= m && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "schema" true (contains "\"schema\":\"plim-lint/v1\"");
  check_bool "source" true (contains "\"source\":\"corrupted\"");
  check_bool "error count" true (contains "\"errors\":1");
  check_bool "diagnostic with exact index" true
    (contains "\"kind\":\"dead-write\",\"instr\":1,\"cell\":2");
  check_bool "storage block" true (contains "\"storage\":{\"total_span\":")

(* --- compiler output is lint-clean -------------------------------------- *)

let lint_configs =
  [ Pipeline.naive; Pipeline.endurance_full; Pipeline.with_cap 10 Pipeline.endurance_full ]

let test_small_suite_clean () =
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      List.iter
        (fun config ->
          let r = Pipeline.compile config g in
          let a =
            A.analyze ?max_writes:config.Pipeline.max_write r.Pipeline.program
          in
          match A.errors a with
          | [] -> ()
          | errs ->
            Alcotest.failf "%s/%s: %s" spec.Suite.name (Pipeline.config_name config)
              (String.concat "; " (List.map A.diagnostic_to_string errs)))
        lint_configs)
    Suite.small_suite

let random_programs_lint_clean =
  QCheck.Test.make ~count:40 ~name:"lint clean on random compiled MIGs"
    (Gen.arbitrary ~max_inputs:5 ~max_nodes:24 ())
    (fun desc ->
      let g = Gen.to_mig desc in
      List.for_all
        (fun config ->
          let r = Pipeline.compile config g in
          A.errors (A.analyze ?max_writes:config.Pipeline.max_write r.Pipeline.program)
          = [])
        lint_configs)

(* --- write bounds agree three ways --------------------------------------- *)

let test_write_counts_three_way () =
  List.iter
    (fun name ->
      let g = (Suite.find name).Suite.build () in
      let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
      let static = Program.static_write_counts p in
      Alcotest.(check (array int))
        (name ^ ": analyzer = static") static (A.write_counts p);
      let inputs =
        Array.to_list (Array.map (fun (n, _) -> (n, false)) p.Program.pi_cells)
      in
      let _, xbar, _ = Controller.run p ~inputs in
      Alcotest.(check (array int))
        (name ^ ": analyzer = crossbar-observed") (Plim_rram.Crossbar.write_counts xbar)
        (A.write_counts p))
    [ "dec4"; "adder8"; "bar8" ]

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "analyze"
    [ ( "ir",
        [ Alcotest.test_case "def-use chains" `Quick test_defs;
          Alcotest.test_case "destination read model" `Quick test_set_const_does_not_read;
          Alcotest.test_case "storage durations" `Quick test_storage ] );
      ( "diagnostics",
        [ Alcotest.test_case "use-before-def" `Quick test_use_before_def;
          Alcotest.test_case "dead write" `Quick test_dead_write;
          Alcotest.test_case "po clobber" `Quick test_po_clobber;
          Alcotest.test_case "rram leak" `Quick test_rram_leak;
          Alcotest.test_case "cap exceeded" `Quick test_cap_exceeded;
          Alcotest.test_case "unused cell" `Quick test_unused_cell;
          Alcotest.test_case "json" `Quick test_json ] );
      ( "compiler",
        [ Alcotest.test_case "small suite lint-clean" `Quick test_small_suite_clean;
          Alcotest.test_case "write bounds three-way" `Quick test_write_counts_three_way;
          qc random_programs_lint_clean ] ) ]
