module Vec = Plim_util.Vec
module Splitmix = Plim_util.Splitmix
module Lazy_heap = Plim_util.Lazy_heap
module Csr = Plim_util.Csr
module File = Plim_util.File
module Stats = Plim_stats.Stats
module Lifetime = Plim_stats.Lifetime

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Vec ------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Vec.create ~dummy:0 () in
  for i = 0 to 99 do
    check_int "push returns index" i (Vec.push v (i * 2))
  done;
  check_int "length" 100 (Vec.length v);
  for i = 0 to 99 do
    check_int "get" (i * 2) (Vec.get v i)
  done

let vec_of a =
  let v = Vec.create ~dummy:0 () in
  Array.iter (fun x -> ignore (Vec.push v x)) a;
  v

let test_vec_set () =
  let v = vec_of [| 1; 2; 3 |] in
  Vec.set v 1 42;
  Alcotest.(check (array int)) "set" [| 1; 42; 3 |] (Vec.to_array v)

let test_vec_bounds () =
  let v = vec_of [| 1 |] in
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds (length 1)")
    (fun () -> ignore (Vec.get v 1));
  Alcotest.check_raises "neg" (Invalid_argument "Vec: index -1 out of bounds (length 1)")
    (fun () -> ignore (Vec.get v (-1)))

let test_vec_clear_iter () =
  let v = vec_of [| 5; 6; 7 |] in
  let acc = ref [] in
  Vec.iteri (fun i x -> acc := (i, x) :: !acc) v;
  Alcotest.(check (list (pair int int))) "iteri" [ (2, 7); (1, 6); (0, 5) ] !acc;
  check_int "fold" 18 (Vec.fold_left ( + ) 0 v);
  Vec.clear v;
  check_int "cleared" 0 (Vec.length v)

let vec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"vec push/to_array roundtrip"
    QCheck.(array small_int)
    (fun a -> Vec.to_array (vec_of a) = a)

(* --- Splitmix -------------------------------------------------------- *)

let test_splitmix_deterministic () =
  let a = Splitmix.create 99 and b = Splitmix.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Splitmix.next64 a) (Splitmix.next64 b)
  done

let splitmix_int_bounds =
  QCheck.Test.make ~count:500 ~name:"splitmix int in bounds"
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Splitmix.create seed in
      let x = Splitmix.int rng bound in
      x >= 0 && x < bound)

let test_splitmix_float_range () =
  let rng = Splitmix.create 3 in
  for _ = 1 to 1000 do
    let f = Splitmix.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

(* --- Fnv ------------------------------------------------------------- *)

let test_fnv_known_vectors () =
  (* reference FNV-1a 64-bit digests; changing these silently would
     orphan every corpus file and serve cache key *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (Plim_util.Fnv.digest_string "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (Plim_util.Fnv.digest_string "a");
  Alcotest.(check string) "foobar" "85944171f73967e8"
    (Plim_util.Fnv.digest_string "foobar")

let test_fnv_distinct () =
  let seen = Hashtbl.create 256 in
  for i = 0 to 999 do
    let d = Plim_util.Fnv.digest_string (string_of_int i) in
    check_int "hex width" 16 (String.length d);
    if Hashtbl.mem seen d then Alcotest.failf "collision at %d (%s)" i d;
    Hashtbl.add seen d ()
  done

let test_splitmix_bits () =
  let rng = Splitmix.create 4 in
  check_int "bits width" 17 (Array.length (Splitmix.bits rng ~width:17))

let test_splitmix_int_uniform () =
  (* rejection sampling kills the modulo bias: over a bound that does not
     divide 2^62, every residue class must land within a few percent of
     the expected count.  10 buckets x 20k draws: expect 2000 per bucket,
     binomial sigma ~ 42, so +-10% (+-200, ~4.7 sigma) is a smoke bound
     that a modulo-biased generator over a skewed bound would still pass —
     the real bias guard is the chi-square below over a pathological
     bound. *)
  let rng = Splitmix.create 0x5EED in
  let buckets = 10 and draws = 20_000 in
  let counts = Array.make buckets 0 in
  for _ = 1 to draws do
    let x = Splitmix.int rng buckets in
    counts.(x) <- counts.(x) + 1
  done;
  let expect = draws / buckets in
  Array.iteri
    (fun i c ->
      if abs (c - expect) > expect / 10 then
        Alcotest.failf "bucket %d: %d draws, expected %d +- 10%%" i c expect)
    counts;
  (* chi-square over bound 3 * 2^60: with plain [next mod bound] the three
     residues would split ~50/25/25 (chi2 ~ draws/2); uniform draws keep
     chi2 near 2.  Anything under 20 is a pass with huge margin. *)
  let bound = 3 * (1 lsl 60) in
  let third = Array.make 3 0 in
  let draws3 = 3_000 in
  for _ = 1 to draws3 do
    let x = Splitmix.int rng bound in
    let k = if x < bound / 3 then 0 else if x < 2 * (bound / 3) then 1 else 2 in
    third.(k) <- third.(k) + 1
  done;
  let e = float_of_int draws3 /. 3.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. e in
        acc +. ((d *. d) /. e))
      0.0 third
  in
  if chi2 > 20.0 then Alcotest.failf "chi-square %f over bound 3*2^60" chi2

let test_splitmix_derive () =
  (* pure in (root, index): same pair, same seed *)
  check_int "reproducible" (Splitmix.derive 42 3) (Splitmix.derive 42 3);
  (* distinct indices and roots give distinct streams *)
  let seen = Hashtbl.create 64 in
  for root = 0 to 7 do
    for i = 0 to 7 do
      let s = Splitmix.derive root i in
      if Hashtbl.mem seen s then
        Alcotest.failf "derive collision at root=%d i=%d" root i;
      Hashtbl.replace seen s ()
    done
  done;
  (* the derived seed is not the root's own stream shifted: task streams
     must not overlap the parent generator *)
  let parent = Splitmix.create 42 in
  let first = Splitmix.int parent max_int in
  check_bool "derived differs from parent draw" true (Splitmix.derive 42 0 <> first)

(* Known answers for seeds 0, 1 and 7: the first draws of each kind, in
   stream order, and two derived seeds.  Every seeded stream in the repo
   (fault sampling, transient draws, workloads, corpora) rests on these. *)
let test_splitmix_known_answers () =
  let check_float what expected got =
    Alcotest.(check int64) what (Int64.bits_of_float expected) (Int64.bits_of_float got)
  in
  List.iter
    (fun (seed, next64, int1000, f1, b, intmax, f2, d0, d5) ->
      let r = Splitmix.create seed in
      let what k = Printf.sprintf "seed %d: %s" seed k in
      Alcotest.(check int64) (what "next64") next64 (Splitmix.next64 r);
      check_int (what "int 1000") int1000 (Splitmix.int r 1000);
      check_float (what "float") f1 (Splitmix.float r);
      check_bool (what "bool") b (Splitmix.bool r);
      check_int (what "int max_int") intmax (Splitmix.int r max_int);
      check_float (what "second float") f2 (Splitmix.float r);
      check_int (what "derive 0") d0 (Splitmix.derive seed 0);
      check_int (what "derive 5") d5 (Splitmix.derive seed 5);
      check_float (what "float = bits53 / 2^53")
        (Splitmix.float (Splitmix.create seed))
        (float_of_int (Splitmix.bits53 (Splitmix.create seed)) /. 9007199254740992.0))
    [ ( 0, -2152535657050944081L, 925, 0x1.b1174620025p-6, false, 490437550606523686,
        0x1.4f2e7c31d1fa8p-2, 1990071630548588925, 801824006500076728 );
      ( 1, -7995527694508729151L, 129, 0x1.f12745ddf664ap-1, true, 2048809309281742190,
        0x1.869a17ff202ap-1, 3439311302766607129, 4046056672035966761 );
      ( 7, 7191089600892374487L, 951, 0x1.cd30810175625p-1, true, 2086519961375180918,
        0x1.fed5f4365df54p-3, 77422343148738951, 2158052326855717949 ) ]

(* --- Lazy_heap ------------------------------------------------------- *)

let check_elt = Alcotest.(check (option int))

let test_heap_ordering () =
  let h = Lazy_heap.create ~capacity:10 in
  Lazy_heap.insert h 3 0 0 1;
  Lazy_heap.insert h 1 0 0 2;
  Lazy_heap.insert h 2 0 0 3;
  check_int "three live" 3 (Lazy_heap.live_count h);
  check_elt "min" (Some 2) (Lazy_heap.pop_min h);
  check_elt "next" (Some 3) (Lazy_heap.pop_min h);
  check_elt "last" (Some 1) (Lazy_heap.pop_min h);
  check_int "empty" 0 (Lazy_heap.live_count h)

let test_heap_lexicographic () =
  let h = Lazy_heap.create ~capacity:10 in
  Lazy_heap.insert h 1 2 0 1;
  Lazy_heap.insert h 1 1 9 2;
  Lazy_heap.insert h 1 1 3 3;
  Lazy_heap.insert h 0 5 5 4;
  check_elt "first key decides" (Some 4) (Lazy_heap.pop_min h);
  check_elt "then the third" (Some 3) (Lazy_heap.pop_min h);
  check_elt "then the second" (Some 2) (Lazy_heap.pop_min h);
  check_elt "last" (Some 1) (Lazy_heap.pop_min h)

let test_heap_rekey () =
  let h = Lazy_heap.create ~capacity:10 in
  Lazy_heap.insert h 5 0 0 1;
  Lazy_heap.insert h 4 0 0 2;
  (* element 1 improves past element 2 *)
  Lazy_heap.insert h 1 0 0 1;
  check_elt "rekeyed element wins" (Some 1) (Lazy_heap.pop_min h);
  check_int "one live left" 1 (Lazy_heap.live_count h)

let heap_vs_sort =
  QCheck.Test.make ~count:200 ~name:"lazy heap drains in sorted key order"
    QCheck.(list (pair (int_range 0 50) (int_range 0 30)))
    (fun entries ->
      (* ids up to 30 outgrow the stamp table sized for 4 *)
      let h = Lazy_heap.create ~capacity:4 in
      (* later inserts for the same element override earlier ones *)
      let final = Hashtbl.create 16 in
      List.iter
        (fun (key, elt) ->
          Lazy_heap.insert h key 0 elt elt;
          Hashtbl.replace final elt key)
        entries;
      let expected =
        Hashtbl.fold (fun elt key acc -> (key, elt) :: acc) final []
        |> List.sort compare |> List.map snd
      in
      let rec drain acc =
        match Lazy_heap.pop_min h with
        | None -> List.rev acc
        | Some elt -> drain (elt :: acc)
      in
      drain [] = expected)

(* Interleaved inserts (a re-insert re-keys) and pops against a
   reference that keeps the live (key, element) pairs in a sorted list:
   a re-key deletes the element's pair, a pop takes the head.  The third
   key component is the element, so the order is total. *)
type heap_op = Insert of int * int * int | Pop

let heap_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map3 (fun k1 k2 x -> Insert (k1, k2, x)) (int_range 0 4) (int_range 0 4)
              (int_range 0 15));
        (3, return Pop) ])

let print_heap_op = function
  | Insert (k1, k2, x) -> Printf.sprintf "insert (%d,%d,%d) %d" k1 k2 x x
  | Pop -> "pop"

let heap_vs_reference =
  QCheck.Test.make ~count:300 ~name:"lazy heap pops like a sorted-list reference"
    (QCheck.make
       ~print:(QCheck.Print.list print_heap_op)
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 80) heap_op_gen))
    (fun ops ->
      let h = Lazy_heap.create ~capacity:16 in
      let drop x = List.filter (fun (_, y) -> y <> x) in
      let step reference = function
        | Insert (k1, k2, x) ->
          Lazy_heap.insert h k1 k2 x x;
          (true, List.merge compare [ ((k1, k2, x), x) ] (drop x reference))
        | Pop ->
          (match (Lazy_heap.pop_min h, reference) with
          | None, [] -> (true, [])
          | Some x, (_, y) :: rest -> (x = y, rest)
          | Some _, [] | None, _ :: _ -> (false, reference))
      in
      let ok, reference =
        List.fold_left
          (fun (ok, reference) op ->
            let step_ok, reference = step reference op in
            (ok && step_ok, reference))
          (true, []) ops
      in
      ok && Lazy_heap.live_count h = List.length reference)

(* --- Csr --------------------------------------------------------------- *)

(* A table of [nb] buckets (0 included) filled by a random add sequence:
   many buckets stay empty.  Each bucket must read back its items in add
   order, and [scatter] must leave [start] as [prefix_sums] did.  The
   packed form built from the same adds must hold the same words. *)
let csr_vs_reference =
  QCheck.Test.make ~count:300 ~name:"csr scatter keeps add order and restores start"
    QCheck.(
      make
        ~print:Print.(pair int (list (pair int int)))
        Gen.(
          int_range 0 12 >>= fun nb ->
          if nb = 0 then return (0, [])
          else
            map (fun adds -> (nb, adds))
              (list_size (int_range 0 40) (pair (int_range 0 (nb - 1)) small_int))))
    (fun (nb, adds) ->
      let start = Array.make (nb + 1) 0 in
      List.iter (fun (b, _) -> start.(b + 1) <- start.(b + 1) + 1) adds;
      Csr.prefix_sums start;
      let offsets = Array.copy start in
      let items = Csr.scatter start (fun add -> List.iter (fun (b, v) -> add b v) adds) in
      let bucket b = Array.to_list (Array.sub items start.(b) (start.(b + 1) - start.(b))) in
      let get t i = Int32.to_int (Bytes.get_int32_ne t (4 * i)) in
      let start32 = Bytes.make (4 * (nb + 1)) '\000' in
      List.iter
        (fun (b, _) -> Bytes.set_int32_ne start32 (4 * (b + 1)) (Int32.of_int (get start32 (b + 1) + 1)))
        adds;
      Csr.prefix_sums32 start32;
      let items32 = Csr.scatter32 start32 (fun add -> List.iter (fun (b, v) -> add b v) adds) in
      let words t = List.init (Bytes.length t / 4) (get t) in
      start = offsets
      && words start32 = Array.to_list start
      && words items32 = Array.to_list items
      && Array.length items = List.length adds
      && List.for_all
           (fun b -> bucket b = List.filter_map (fun (b', v) -> if b' = b then Some v else None) adds)
           (List.init nb Fun.id))

(* Minor words [f] allocates over [n] calls, less what the empty loop
   costs (the boxed floats [Gc.minor_words] returns). *)
let minor_words_of n f =
  let words body =
    let before = Gc.minor_words () in
    for i = 1 to n do
      body i
    done;
    Gc.minor_words () -. before
  in
  words f -. words ignore

(* Once the slot arrays and the stamp table have grown, an insert
   allocates nothing: the first round grows them, the measured one (after
   a drain) reuses them.  Falling keys sift every insert to the top. *)
let test_heap_insert_allocates_nothing () =
  let n = 10_000 in
  let h = Lazy_heap.create ~capacity:1 in
  let round () = minor_words_of n (fun i -> Lazy_heap.insert h (n - i) 0 0 (i - 1)) in
  ignore (round ());
  while Lazy_heap.pop_min h <> None do () done;
  Alcotest.(check (float 0.)) "insert" 0. (round ());
  check_int "all live" n (Lazy_heap.live_count h)

(* --- Stats ----------------------------------------------------------- *)

let test_stats_summary () =
  let s = Stats.summarize [| 2; 4; 4; 4; 5; 5; 7; 9 |] in
  check_int "min" 2 s.Stats.min;
  check_int "max" 9 s.Stats.max;
  check_int "total" 40 s.Stats.total;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.Stats.mean;
  Alcotest.(check (float 1e-9)) "stdev" 2.0 s.Stats.stdev;
  (* nearest-rank quantiles agree with Stats.quantile on the same data *)
  check_int "p50" 4 s.Stats.p50;
  check_int "p90" 9 s.Stats.p90;
  check_int "p99" 9 s.Stats.p99;
  check_int "p50 = quantile 0.5"
    (Stats.quantile 0.5 [| 2; 4; 4; 4; 5; 5; 7; 9 |])
    s.Stats.p50;
  Alcotest.(check (float 1e-9)) "max/mean ratio" 1.8 (Stats.max_mean_ratio s)

let test_stats_singleton () =
  let s = Stats.summarize [| 7 |] in
  Alcotest.(check (float 1e-9)) "stdev of singleton" 0.0 s.Stats.stdev;
  check_int "singleton p50" 7 s.Stats.p50;
  check_int "singleton p99" 7 s.Stats.p99;
  Alcotest.(check (float 1e-9)) "singleton max/mean" 1.0 (Stats.max_mean_ratio s);
  Alcotest.(check (float 1e-9)) "all-zero max/mean" 1.0
    (Stats.max_mean_ratio (Stats.summarize [| 0; 0; 0 |]));
  let z = Stats.summarize [||] in
  Alcotest.(check bool) "empty is zero summary" true
    (z
    = { Stats.count = 0; min = 0; max = 0; total = 0; mean = 0.0; stdev = 0.0;
        p50 = 0; p90 = 0; p99 = 0 })

let test_stats_mean_list () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean_list [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 7.5 (Stats.mean_list [ 7.5 ]);
  (* regression: the bench AVG rows fed 0/0 = nan into the tables when a
     suite selection was empty *)
  let e = Stats.mean_list [] in
  check_bool "empty is finite" true (Float.is_finite e);
  Alcotest.(check (float 1e-9)) "empty is 0" 0.0 e

let test_stats_improvement () =
  Alcotest.(check (float 1e-9)) "50%" 50.0 (Stats.improvement_pct ~baseline:10.0 5.0);
  Alcotest.(check (float 1e-9)) "-100%" (-100.0) (Stats.improvement_pct ~baseline:5.0 10.0);
  Alcotest.(check (float 1e-9)) "zero baseline" 0.0 (Stats.improvement_pct ~baseline:0.0 3.0)

let test_stats_quantile () =
  let xs = [| 9; 1; 8; 2; 7; 3; 6; 4; 5 |] in
  check_int "median" 5 (Stats.quantile 0.5 xs);
  check_int "min" 1 (Stats.quantile 0.0 xs);
  check_int "max" 9 (Stats.quantile 1.0 xs)

(* the nearest-rank rule documented in stats.mli: the q-quantile of n
   samples is element ceil(q * n) - 1 of the sorted data, so p99 on
   fewer than 100 samples is exactly the maximum — a tail witness, not
   an interpolated estimate *)
let test_stats_small_n_quantiles () =
  let xs = Array.init 10 (fun i -> (i + 1) * 10) in
  (* 10 samples: ceil(0.99 * 10) - 1 = 9, the last element *)
  check_int "p99 of 10 samples is the max" 100 (Stats.quantile 0.99 xs);
  check_int "summary agrees" 100 (Stats.summarize xs).Stats.p99;
  check_int "p90 of 10 samples" 90 (Stats.quantile 0.9 xs);
  (* any q beyond (n-1)/n collapses to the max *)
  check_int "q just past the last rank" 100 (Stats.quantile 0.91 xs);
  (* at n = 100 the p99 rank finally separates from the max *)
  let big = Array.init 100 (fun i -> i + 1) in
  check_int "p99 of 100 samples" 99 (Stats.quantile 0.99 big);
  check_int "max of 100 samples" 100 (Stats.quantile 1.0 big);
  check_int "p99 of 99 samples still the max" 99
    (Stats.quantile 0.99 (Array.init 99 (fun i -> i + 1)))

let test_stats_histogram () =
  let h = Stats.histogram ~bucket:10 [| 1; 5; 11; 12; 25 |] in
  Alcotest.(check (list (pair int int))) "buckets" [ (0, 2); (10, 2); (20, 1) ] h

let test_stats_gini () =
  Alcotest.(check (float 1e-9)) "uniform gini" 0.0 (Stats.gini [| 5; 5; 5; 5 |]);
  check_bool "concentrated gini high" true (Stats.gini [| 0; 0; 0; 100 |] > 0.7)

let stdev_nonneg =
  QCheck.Test.make ~count:300 ~name:"stdev is non-negative and shift-invariant"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 1000))
    (fun xs ->
      let a = Array.of_list xs in
      let s = (Stats.summarize a).Stats.stdev in
      let shifted = Array.map (( + ) 17) a in
      let s' = (Stats.summarize shifted).Stats.stdev in
      s >= 0.0 && abs_float (s -. s') < 1e-6)

(* --- Lifetime --------------------------------------------------------- *)

let test_lifetime () =
  let t = Lifetime.estimate ~endurance:1e10 [| 10; 10; 10; 10 |] in
  Alcotest.(check (float 1.0)) "first failure" 1e9 t.Lifetime.executions_to_first_failure;
  Alcotest.(check (float 1e-9)) "balanced" 1.0 t.Lifetime.balance_efficiency;
  let t = Lifetime.estimate ~endurance:1e10 [| 0; 0; 0; 40 |] in
  Alcotest.(check (float 1e-6)) "skewed efficiency" 0.25 t.Lifetime.balance_efficiency;
  let t = Lifetime.estimate ~endurance:1e10 [| 0; 0 |] in
  check_bool "no writes = infinite" true (t.Lifetime.executions_to_first_failure = infinity)

(* --- File ------------------------------------------------------------- *)

(* a written file reads back byte for byte; an unwritable path, or one
   whose flush fails (Linux's /dev/full), is an [Error] naming it, never
   an exception *)
let test_file_write () =
  let path = Filename.temp_file "plim_file" ".bin" in
  let text = "line\n\000\255" in
  Alcotest.(check (result unit string)) "write" (Ok ()) (File.write path text);
  Alcotest.(check (result string string)) "read back" (Ok text) (File.read path);
  Sys.remove path;
  let bad = Filename.concat path "x" in
  Alcotest.(check (result unit string))
    "missing directory" (Error (bad ^ ": No such file or directory"))
    (File.write bad text);
  if Sys.file_exists "/dev/full" then
    Alcotest.(check (result unit string))
      "failed flush" (Error "/dev/full: No space left on device")
      (File.write "/dev/full" text)

(* --- Jsonx ------------------------------------------------------------- *)

let test_jsonx_escape () =
  let module J = Plim_util.Jsonx in
  Alcotest.(check string) "plain passthrough" {|"abc"|} (J.quote "abc");
  Alcotest.(check string) "quote" {|"a\"b"|} (J.quote "a\"b");
  Alcotest.(check string) "backslash" {|"a\\b"|} (J.quote "a\\b");
  Alcotest.(check string) "short escapes" {|"\n\t\r\b\f"|} (J.quote "\n\t\r\b\012");
  Alcotest.(check string) "other control bytes get \\u00XX" {|"\u0000\u0001\u001f"|}
    (J.quote "\000\001\031");
  (* 0x7f and non-ASCII bytes are not control characters: UTF-8 payloads
     pass through untouched *)
  Alcotest.(check string) "utf-8 passthrough" "\"caf\xc3\xa9 \x7f\""
    (J.quote "caf\xc3\xa9 \x7f");
  Alcotest.(check string) "quote wraps" {|"a\"b"|} (J.quote "a\"b");
  let b = Buffer.create 8 in
  J.escape_into b "x\n";
  J.escape_into b "\"y";
  Alcotest.(check string) "escape_into appends" {|x\n\"y|} (Buffer.contents b)

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "util"
    [ ( "vec",
        [ Alcotest.test_case "push/get" `Quick test_vec_push_get;
          Alcotest.test_case "set" `Quick test_vec_set;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "clear/iter/fold" `Quick test_vec_clear_iter;
          qc vec_roundtrip ] );
      ( "fnv",
        [ Alcotest.test_case "known vectors" `Quick test_fnv_known_vectors;
          Alcotest.test_case "distinct digests" `Quick test_fnv_distinct ] );
      ( "splitmix",
        [ Alcotest.test_case "deterministic" `Quick test_splitmix_deterministic;
          Alcotest.test_case "float range" `Quick test_splitmix_float_range;
          Alcotest.test_case "bits" `Quick test_splitmix_bits;
          Alcotest.test_case "int uniformity" `Quick test_splitmix_int_uniform;
          Alcotest.test_case "derive" `Quick test_splitmix_derive;
          Alcotest.test_case "known answers" `Quick test_splitmix_known_answers;
          qc splitmix_int_bounds ] );
      ( "lazy-heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "rekey" `Quick test_heap_rekey;
          Alcotest.test_case "lexicographic keys" `Quick test_heap_lexicographic;
          qc heap_vs_sort;
          qc heap_vs_reference;
          Alcotest.test_case "insert allocates nothing" `Quick
            test_heap_insert_allocates_nothing ] );
      ("csr", [ qc csr_vs_reference ]);
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "singleton/empty" `Quick test_stats_singleton;
          Alcotest.test_case "mean_list" `Quick test_stats_mean_list;
          Alcotest.test_case "improvement" `Quick test_stats_improvement;
          Alcotest.test_case "quantile" `Quick test_stats_quantile;
          Alcotest.test_case "small-n nearest-rank quantiles" `Quick
            test_stats_small_n_quantiles;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "gini" `Quick test_stats_gini;
          qc stdev_nonneg ] );
      ("lifetime", [ Alcotest.test_case "estimates" `Quick test_lifetime ]);
      ("file", [ Alcotest.test_case "write" `Quick test_file_write ]);
      ( "jsonx",
        [ Alcotest.test_case "escape vectors" `Quick test_jsonx_escape ] ) ]
