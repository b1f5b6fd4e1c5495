module Mig = Plim_mig.Mig
module Word = Plim_benchgen.Word
module Arith = Plim_benchgen.Arith
module Frontend = Plim_benchgen.Frontend
module Suite = Plim_benchgen.Suite
module Tt = Plim_logic.Truth_table
module Splitmix = Plim_util.Splitmix

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let to_int bits =
  Array.to_list bits |> List.rev
  |> List.fold_left (fun acc b -> (acc lsl 1) lor if b then 1 else 0) 0

let of_int v w = Array.init w (fun i -> (v lsr i) land 1 = 1)

(* evaluate a one-output-word circuit built by [f] on integer inputs *)
let eval_circuit g inputs = to_int (Mig.eval g inputs)

(* --- word-level builders vs integer arithmetic ---------------------------- *)

let word_binop_test name builder reference =
  QCheck.Test.make ~count:150 ~name
    QCheck.(triple (int_range 1 9) (int_range 0 511) (int_range 0 511))
    (fun (w, a0, b0) ->
      let mask = (1 lsl w) - 1 in
      let a0 = a0 land mask and b0 = b0 land mask in
      let g = Mig.create () in
      let a = Word.input g "a" w in
      let b = Word.input g "b" w in
      Word.output g "y" (builder g a b);
      let out = eval_circuit g (Array.append (of_int a0 w) (of_int b0 w)) in
      out = reference w a0 b0)

let add_test =
  word_binop_test "add = integer addition"
    (fun g a b -> let s, c = Word.add g a b in Array.append s [| c |])
    (fun _w a b -> a + b)

let sub_test =
  word_binop_test "sub = modular subtraction with borrow flag"
    (fun g a b ->
      let d, no_borrow = Word.sub g a b in
      Array.append d [| no_borrow |])
    (fun w a b ->
      let mask = (1 lsl w) - 1 in
      ((a - b) land mask) lor (if a >= b then 1 lsl w else 0))

let mul_test =
  word_binop_test "mul = integer product" (fun g a b -> Word.mul g a b) (fun _ a b -> a * b)

let lt_test =
  word_binop_test "less_than = unsigned <"
    (fun g a b -> [| Word.less_than g a b |])
    (fun _ a b -> if a < b then 1 else 0)

let divmod_test =
  QCheck.Test.make ~count:150 ~name:"divmod = integer division"
    QCheck.(triple (int_range 1 8) (int_range 0 255) (int_range 1 255))
    (fun (w, a0, b0) ->
      let mask = (1 lsl w) - 1 in
      let a0 = a0 land mask and b0 = max 1 (b0 land mask) in
      let g = Mig.create () in
      let a = Word.input g "a" w in
      let b = Word.input g "b" w in
      let q, r = Word.divmod g a b in
      Word.output g "y" (Array.append q r);
      let out = eval_circuit g (Array.append (of_int a0 w) (of_int b0 w)) in
      out = (a0 / b0) lor ((a0 mod b0) lsl w))

let isqrt_test =
  QCheck.Test.make ~count:150 ~name:"isqrt = floor square root"
    QCheck.(pair (int_range 1 5) (int_range 0 1023))
    (fun (w, n0) ->
      let n0 = n0 land ((1 lsl (2 * w)) - 1) in
      let g = Mig.create () in
      let n = Word.input g "n" (2 * w) in
      Word.output g "y" (Word.isqrt g n);
      let out = eval_circuit g (of_int n0 (2 * w)) in
      out = int_of_float (Float.sqrt (float_of_int n0)))

let popcount_test =
  QCheck.Test.make ~count:150 ~name:"popcount"
    QCheck.(pair (int_range 1 10) (int_range 0 1023))
    (fun (w, v0) ->
      let v0 = v0 land ((1 lsl w) - 1) in
      let g = Mig.create () in
      let v = Word.input g "v" w in
      Word.output g "y" (Word.popcount g v);
      let rec pop x = if x = 0 then 0 else (x land 1) + pop (x lsr 1) in
      eval_circuit g (of_int v0 w) = pop v0)

let barrel_test =
  QCheck.Test.make ~count:150 ~name:"barrel shifts = lsr/lsl"
    QCheck.(triple (int_range 1 16) (int_range 0 65535) (int_range 0 15))
    (fun (w, v0, sh) ->
      let mask = (1 lsl w) - 1 in
      let v0 = v0 land mask in
      let sw = max 1 (int_of_float (ceil (Float.log2 (float_of_int (max 2 w))))) in
      let sh = sh land ((1 lsl sw) - 1) in
      let g = Mig.create () in
      let v = Word.input g "v" w in
      let amount = Word.input g "sh" sw in
      Word.output g "r" (Word.barrel_shift_right g v ~amount);
      Word.output g "l" (Word.barrel_shift_left g v ~amount);
      let out = Mig.eval g (Array.append (of_int v0 w) (of_int sh sw)) in
      let r = to_int (Array.sub out 0 w) and l = to_int (Array.sub out w w) in
      r = (v0 lsr sh) land mask && l = (v0 lsl sh) land mask)

let priority_test =
  QCheck.Test.make ~count:200 ~name:"priority encoder finds highest set bit"
    QCheck.(pair (int_range 1 12) (int_range 0 4095))
    (fun (w, v0) ->
      let v0 = v0 land ((1 lsl w) - 1) in
      let g = Mig.create () in
      let v = Word.input g "v" w in
      let idx, valid = Word.priority_encode g v in
      Word.output g "i" idx;
      Mig.add_output g "v" valid;
      let out = Mig.eval g (of_int v0 w) in
      let idx_got = to_int (Array.sub out 0 (Array.length out - 1)) in
      let valid_got = out.(Array.length out - 1) in
      if v0 = 0 then (not valid_got) && idx_got = 0
      else begin
        let rec high i = if v0 lsr i <> 0 then i else high (i - 1) in
        valid_got && idx_got = high (w - 1)
      end)

let decode_test =
  QCheck.Test.make ~count:100 ~name:"decoder is one-hot"
    QCheck.(pair (int_range 1 6) (int_range 0 63))
    (fun (w, s0) ->
      let s0 = s0 land ((1 lsl w) - 1) in
      let g = Mig.create () in
      let s = Word.input g "s" w in
      Word.output g "d" (Word.decode g s);
      eval_circuit g (of_int s0 w) = 1 lsl s0)

let test_word_errors () =
  let g = Mig.create () in
  let a = Word.input g "a" 4 in
  let b = Word.input g "b" 3 in
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Word.add: width mismatch (4 vs 3)") (fun () ->
      ignore (Word.add g a b));
  Alcotest.check_raises "slice oob" (Invalid_argument "Word.slice") (fun () ->
      ignore (Word.slice a ~lo:2 ~len:3));
  Alcotest.check_raises "shrink" (Invalid_argument "Word.zero_extend: shrinking") (fun () ->
      ignore (Word.zero_extend a 2))

let test_word_const_slice_concat () =
  let g = Mig.create () in
  let c = Word.constant g ~width:8 0xA5 in
  check_int "constant value" 0xA5 (to_int (Array.map (fun s -> Mig.is_complemented s) c));
  let lo = Word.slice c ~lo:0 ~len:4 and hi = Word.slice c ~lo:4 ~len:4 in
  check_int "concat restores" 0xA5
    (to_int (Array.map Mig.is_complemented (Array.append lo hi)))

(* --- full circuits vs reference models ------------------------------------- *)

let test_dec_exhaustive () =
  let g = Arith.dec ~bits:4 in
  for s = 0 to 15 do
    check_int (Printf.sprintf "dec %d" s) (1 lsl s) (eval_circuit g (of_int s 4))
  done

let test_voter () =
  let g = Arith.voter ~inputs:15 in
  let rng = Splitmix.create 11 in
  for _ = 1 to 100 do
    let v = Splitmix.bits rng ~width:15 in
    let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 v in
    let out = Mig.eval g v in
    check_bool "majority vote" (ones >= 8) out.(0)
  done

let test_max () =
  let g = Arith.max ~width:6 ~operands:4 in
  let rng = Splitmix.create 12 in
  for _ = 1 to 100 do
    let xs = Array.init 4 (fun _ -> Splitmix.int rng 64) in
    let inputs = Array.concat (Array.to_list (Array.map (fun v -> of_int v 6) xs)) in
    let out = Mig.eval g inputs in
    let got_max = to_int (Array.sub out 0 6) in
    let got_idx = to_int (Array.sub out 6 2) in
    let want = Array.fold_left max 0 xs in
    check_int "max value" want got_max;
    check_int "argmax value" want xs.(got_idx)
  done

let test_bar_circuit () =
  let g = Arith.bar ~width:16 in
  let rng = Splitmix.create 13 in
  for _ = 1 to 100 do
    let v = Splitmix.int rng 65536 and sh = Splitmix.int rng 16 in
    let out = eval_circuit g (Array.append (of_int v 16) (of_int sh 4)) in
    check_int "barrel" (v lsr sh) out
  done

let test_log2_reference () =
  let g = Arith.log2 () in
  let rng = Splitmix.create 14 in
  for _ = 1 to 25 do
    let x = 1 + Splitmix.int rng 0x7FFFFFFF in
    Alcotest.(check (array bool))
      "log2 circuit = reference model"
      (Arith.log2_reference (of_int x 32))
      (Mig.eval g (of_int x 32))
  done;
  (* integer part is exact *)
  List.iter
    (fun x ->
      let out = to_int (Mig.eval g (of_int x 32)) in
      let int_part = out lsr 27 in
      let rec floor_log2 i = if x lsr i <> 0 then i else floor_log2 (i - 1) in
      check_int (Printf.sprintf "integer part of log2 %d" x) (floor_log2 31) int_part)
    [ 1; 2; 3; 7; 8; 255; 256; 65535; 1 lsl 30 ]

let test_sin_reference () =
  let g = Arith.sin () in
  let rng = Splitmix.create 15 in
  for _ = 1 to 25 do
    let x = Splitmix.int rng (1 lsl 24) in
    Alcotest.(check (array bool))
      "sin circuit = reference model"
      (Arith.sin_reference (of_int x 24))
      (Mig.eval g (of_int x 24))
  done;
  (* numeric accuracy of the polynomial: ~2e-3 *)
  List.iter
    (fun frac ->
      let x = int_of_float (frac *. 16777216.0) in
      let out = to_int (Mig.eval g (of_int x 24)) in
      let got = float_of_int out /. 16777216.0 in
      let want = Float.sin (Float.pi /. 2.0 *. frac) in
      if Float.abs (got -. want) > 0.004 then
        Alcotest.failf "sin(%f): circuit %f vs math %f" frac got want)
    [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.99 ]

let test_width_one_words () =
  let g = Mig.create () in
  let a = Word.input g "a" 1 in
  let b = Word.input g "b" 1 in
  let sum, carry = Word.add g a b in
  let q, r = Word.divmod g a b in
  Word.output g "s" sum;
  Mig.add_output g "c" carry;
  Word.output g "q" q;
  Word.output g "r" r;
  Word.output g "sq" (Word.isqrt g (Array.append a b));
  for m = 0 to 3 do
    let va = m land 1 and vb = (m lsr 1) land 1 in
    let out = Mig.eval g [| va = 1; vb = 1 |] in
    Alcotest.(check bool) "sum" ((va + vb) land 1 = 1) out.(0);
    Alcotest.(check bool) "carry" (va + vb >= 2) out.(1);
    if vb = 1 then begin
      Alcotest.(check bool) "q" (va / vb = 1) out.(2);
      Alcotest.(check bool) "r" (va mod vb = 1) out.(3)
    end;
    let n = va + (2 * vb) in
    Alcotest.(check bool) "sqrt" (int_of_float (sqrt (float_of_int n)) = 1) out.(4)
  done

let test_divmod_by_zero_convention () =
  (* restoring-array behaviour: q = all ones, r = dividend *)
  let g = Mig.create () in
  let a = Word.input g "a" 4 in
  let b = Word.input g "b" 4 in
  let q, r = Word.divmod g a b in
  Word.output g "q" q;
  Word.output g "r" r;
  for a0 = 0 to 15 do
    let out = Mig.eval g (Array.append (of_int a0 4) (of_int 0 4)) in
    check_int "q all ones" 15 (to_int (Array.sub out 0 4));
    check_int "r = dividend" a0 (to_int (Array.sub out 4 4))
  done

let test_isqrt_perfect_squares () =
  let g = Mig.create () in
  let n = Word.input g "n" 12 in
  Word.output g "r" (Word.isqrt g n);
  for root = 0 to 63 do
    let out = to_int (Mig.eval g (of_int (root * root) 12)) in
    check_int (Printf.sprintf "sqrt(%d^2)" root) root out;
    if root >= 1 && (root * root) + 1 < 4096 then begin
      let out = to_int (Mig.eval g (of_int ((root * root) + 1) 12)) in
      check_int "floor behaviour" root out
    end
  done

let test_log2_powers_of_two () =
  let g = Arith.log2 () in
  for k = 0 to 31 do
    let out = to_int (Mig.eval g (of_int (1 lsl k) 32)) in
    check_int (Printf.sprintf "log2(2^%d)" k) k (out lsr 27);
    check_int "zero fraction" 0 (out land 0x7FFFFFF)
  done

(* --- AIG frontend ----------------------------------------------------------- *)

let frontend_preserves =
  QCheck.Test.make ~count:50 ~name:"frontend expansion preserves function"
    QCheck.small_int
    (fun seed ->
      let g =
        Plim_mig.Mig_gen.random ~seed ~num_inputs:6 ~num_nodes:40 ~num_outputs:4 ()
      in
      let g' = Frontend.expand g in
      Frontend.is_aig g'
      && Array.for_all2 Tt.equal (Mig.output_tables g) (Mig.output_tables g'))

let test_frontend_shape () =
  let fa = Arith.adder ~width:2 in
  check_bool "true majorities before" false (Frontend.is_aig fa);
  let aig = Frontend.expand fa in
  check_bool "aig after" true (Frontend.is_aig aig);
  check_bool "expansion grows" true (Mig.size aig > Mig.size fa)

(* Every word [Frontend.expand] allocates, minor plus direct major, per
   node of the expanded graph.  A target sized for the source alone,
   which doubles its node arrays and rehashes its 8-byte-slot strash
   twice on these circuits, reads 15.3 (sin), 21.5 (sqrt) and 21.6
   (square); a target sized once from a counting walk, with 4-byte slots,
   reads 5.9-6.5 with four word-sized node arrays, and 3.2-3.9 with one
   12-byte record per node. *)
let test_expand_words () =
  List.iter
    (fun (name, build) ->
      let src = build () in
      let g, words = Helpers.total_words_of (fun () -> Frontend.expand src) in
      let per_node = words /. float_of_int (Mig.num_nodes g) in
      if per_node >= 4.5 then
        Alcotest.failf "%s: expand allocates %.1f words per output node (>= 4.5)" name per_node)
    [ ("sin", fun () -> Arith.sin ());
      ("sqrt", fun () -> Arith.sqrt ~width:64);
      ("square", fun () -> Arith.square ~width:64) ]

(* --- suite ------------------------------------------------------------------- *)

let test_suite_pi_po () =
  List.iter
    (fun spec ->
      let g = Suite.build_cached spec in
      check_int (spec.Suite.name ^ " PI") spec.Suite.pi (Mig.num_inputs g);
      check_int (spec.Suite.name ^ " PO") spec.Suite.po (Mig.num_outputs g))
    (* mem_ctrl and the big arithmetic circuits are exercised by the bench
       harness; keep unit tests fast *)
    (List.filter
       (fun s -> List.mem s.Suite.name [ "sin"; "cavlc"; "ctrl"; "dec"; "int2float"; "router" ])
       Suite.all)

let test_small_suite_pi_po () =
  List.iter
    (fun spec ->
      let g = spec.Suite.build () in
      check_int (spec.Suite.name ^ " PI") spec.Suite.pi (Mig.num_inputs g);
      check_int (spec.Suite.name ^ " PO") spec.Suite.po (Mig.num_outputs g))
    Suite.small_suite

let test_suite_lookup () =
  check_int "18 benchmarks" 18 (List.length Suite.all);
  check_bool "find works" true ((Suite.find "adder").Suite.pi = 256);
  check_bool "names" true (List.exists (fun s -> s.Suite.name = "mem_ctrl") Suite.all);
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Suite.find "nope"))

let test_build_cached () =
  let spec = Suite.find "dec" in
  check_bool "memoised" true (Suite.build_cached spec == Suite.build_cached spec)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "benchgen"
    [ ( "word",
        [ qc add_test; qc sub_test; qc mul_test; qc lt_test; qc divmod_test;
          qc isqrt_test; qc popcount_test;
          qc barrel_test; qc priority_test; qc decode_test;
          Alcotest.test_case "errors" `Quick test_word_errors;
          Alcotest.test_case "const/slice/concat" `Quick test_word_const_slice_concat ] );
      ( "edge-cases",
        [ Alcotest.test_case "width-1 words" `Quick test_width_one_words;
          Alcotest.test_case "division by zero convention" `Quick
            test_divmod_by_zero_convention;
          Alcotest.test_case "isqrt perfect squares" `Quick test_isqrt_perfect_squares;
          Alcotest.test_case "log2 powers of two" `Quick test_log2_powers_of_two ] );
      ( "circuits",
        [ Alcotest.test_case "decoder (exhaustive)" `Quick test_dec_exhaustive;
          Alcotest.test_case "voter" `Quick test_voter;
          Alcotest.test_case "max" `Quick test_max;
          Alcotest.test_case "barrel shifter" `Quick test_bar_circuit;
          Alcotest.test_case "log2 vs reference" `Quick test_log2_reference;
          Alcotest.test_case "sin vs reference" `Quick test_sin_reference ] );
      ( "frontend",
        [ qc frontend_preserves;
          Alcotest.test_case "aig shape" `Quick test_frontend_shape;
          Alcotest.test_case "expand's words per output node" `Quick test_expand_words ] );
      ( "suite",
        [ Alcotest.test_case "paper PI/PO counts" `Quick test_suite_pi_po;
          Alcotest.test_case "small suite PI/PO" `Quick test_small_suite_pi_po;
          Alcotest.test_case "lookup" `Quick test_suite_lookup;
          Alcotest.test_case "caching" `Quick test_build_cached ] ) ]
