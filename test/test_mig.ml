module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io
module Mig_gen = Plim_mig.Mig_gen
module Tt = Plim_logic.Truth_table
module Vec = Plim_util.Vec

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let signal_equal (a : Mig.signal) b = a = b

let fresh3 () =
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  let c = Mig.add_input g "c" in
  (g, a, b, c)

(* --- construction ------------------------------------------------------ *)

let test_signals () =
  let s = Mig.signal 5 true in
  check_int "node" 5 (Mig.node_of s);
  check_bool "compl" true (Mig.is_complemented s);
  check_bool "double negation" true (signal_equal s (Mig.not_ (Mig.not_ s)));
  check_bool "const" true (Mig.is_const Mig.true_);
  check_bool "true = !false" true (signal_equal Mig.true_ (Mig.not_ Mig.false_))

let test_omega_m_on_create () =
  let g, a, b, _ = fresh3 () in
  check_bool "<aab>=a" true (signal_equal a (Mig.maj g a a b));
  check_bool "<a!ab>=b" true (signal_equal b (Mig.maj g a (Mig.not_ a) b));
  check_bool "<a a a>=a" true (signal_equal a (Mig.maj g a a a));
  check_bool "<a 0 1>=a" true (signal_equal a (Mig.maj g a Mig.false_ Mig.true_));
  check_int "no node created" 0 (Mig.size g)

let test_strash () =
  let g, a, b, c = fresh3 () in
  let n1 = Mig.maj g a b c in
  let n2 = Mig.maj g c a b in
  let n3 = Mig.maj g b c a in
  check_bool "commutative dedup" true (signal_equal n1 n2);
  check_bool "commutative dedup" true (signal_equal n1 n3);
  let n4 = Mig.maj g (Mig.not_ a) b c in
  check_bool "different polarity distinct" false (signal_equal n1 n4)

let test_lookup () =
  let g, a, b, c = fresh3 () in
  Alcotest.(check bool) "lookup miss" true (Mig.lookup ~below:max_int g a b c = None);
  let n = Mig.maj g a b c in
  Alcotest.(check bool) "lookup hit" true (Mig.lookup ~below:max_int g b c a = Some n);
  Alcotest.(check bool) "lookup reduce" true (Mig.lookup ~below:max_int g a a b = Some a);
  (* lookup never creates *)
  let before = Mig.num_nodes g in
  ignore (Mig.lookup ~below:max_int g (Mig.not_ a) (Mig.not_ b) c);
  check_int "lookup is pure" before (Mig.num_nodes g)

(* with [~below:id] the strash answers as the prefix of nodes below [id]
   would; Ω.M reductions need no node and ignore the bound *)
let test_lookup_below () =
  let g, a, b, c = fresh3 () in
  let n = Mig.maj g a b c in
  let id = Mig.node_of n in
  check_bool "hit below the bound" true (Mig.lookup ~below:(id + 1) g a b c = Some n);
  check_bool "node at the bound misses" true (Mig.lookup ~below:id g a b c = None);
  check_bool "reduction ignores the bound" true (Mig.lookup ~below:0 g a a b = Some a)

let test_gate_semantics () =
  let g, a, b, c = fresh3 () in
  Mig.add_output g "and" (Mig.and_ g a b);
  Mig.add_output g "or" (Mig.or_ g a b);
  Mig.add_output g "xor" (Mig.xor g a b);
  Mig.add_output g "mux" (Mig.mux g a b c);
  for m = 0 to 7 do
    let va = m land 1 = 1 and vb = m land 2 = 2 and vc = m land 4 = 4 in
    let out = Mig.eval g [| va; vb; vc |] in
    check_bool "and" (va && vb) out.(0);
    check_bool "or" (va || vb) out.(1);
    check_bool "xor" (va <> vb) out.(2);
    check_bool "mux" (if va then vb else vc) out.(3)
  done

let test_duplicate_input () =
  let g = Mig.create () in
  ignore (Mig.add_input g "a");
  Alcotest.check_raises "dup" (Invalid_argument "Mig.add_input: duplicate input \"a\"")
    (fun () -> ignore (Mig.add_input g "a"))

(* rebuild_into (here under cleanup) copies input names without
   add_input's check; the copy's own add_input must still see them *)
let test_duplicate_input_after_copy () =
  let g, a, b, c = fresh3 () in
  Mig.add_output g "y" (Mig.maj g a b c);
  let g' = Mig.cleanup g in
  Alcotest.(check (array string)) "names copied" [| "a"; "b"; "c" |] (Mig.input_names g');
  Alcotest.check_raises "dup in the copy"
    (Invalid_argument "Mig.add_input: duplicate input \"b\"")
    (fun () -> ignore (Mig.add_input g' "b"));
  ignore (Mig.add_input g' "d");
  check_int "fresh name accepted" 4 (Mig.num_inputs g')

(* [add_input] looks names up in a table: 20 000 inputs take a few
   milliseconds of CPU, where the former scan of every earlier name took
   about a second.  The table catches up with inputs a rebuild copied
   unchecked, and a rebuild into a used graph forgets the old names. *)
let test_many_inputs_linear () =
  let g = Mig.create () in
  let t0 = Sys.time () in
  for i = 0 to 19_999 do
    ignore (Mig.add_input g (Printf.sprintf "in%d" i))
  done;
  let cpu = Sys.time () -. t0 in
  check_int "inputs" 20_000 (Mig.num_inputs g);
  if cpu >= 0.25 then
    Alcotest.failf "20 000 add_input calls took %.3f s of CPU (>= 0.25 s)" cpu;
  Alcotest.check_raises "dup among many"
    (Invalid_argument "Mig.add_input: duplicate input \"in12345\"")
    (fun () -> ignore (Mig.add_input g "in12345"));
  let src, a, b, c = fresh3 () in
  Mig.add_output src "y" (Mig.maj src a b c);
  Mig.rebuild_into ~map:(Array.make (Mig.num_nodes src) Mig.false_) src ~into:g
    ~rule:(fun g' ~old_id:_ a b c -> Mig.maj g' a b c);
  Alcotest.(check (array string)) "the target holds the source's inputs"
    [| "a"; "b"; "c" |] (Mig.input_names g);
  Alcotest.check_raises "dup after a rebuild into a used graph"
    (Invalid_argument "Mig.add_input: duplicate input \"c\"")
    (fun () -> ignore (Mig.add_input g "c"));
  ignore (Mig.add_input g "in12345");
  check_int "an old name is free again" 4 (Mig.num_inputs g)

(* --- primitive contract -------------------------------------------------- *)

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

(* The calls a rule decision and a rebuild make per node allocate nothing. *)
let test_primitives_allocate_nothing () =
  let n = 10_000 in
  let g = Mig.create_sized ~nodes:(3 * n) () in
  let xs = Array.init 8 (fun i -> Mig.add_input g (Printf.sprintf "x%d" i)) in
  let hit = Mig.maj g xs.(0) xs.(1) xs.(2) in
  let id = Mig.node_of hit in
  let check name words = Alcotest.(check (float 0.)) name 0. words in
  check "maj hit" (minor_words_of n (fun _ -> ignore (Mig.maj g xs.(2) xs.(0) xs.(1))));
  check "maj reduction" (minor_words_of n (fun _ -> ignore (Mig.maj g xs.(3) xs.(3) xs.(4))));
  (* a fresh node per call: <x0 x1 !p> over a chain, all distinct *)
  let prev = ref hit and before = Mig.num_nodes g in
  check "maj miss"
    (minor_words_of n (fun _ -> prev := Mig.maj g xs.(5) xs.(6) (Mig.not_ !prev)));
  check_int "every miss made a node" (before + n) (Mig.num_nodes g);
  check "lookup ~below miss"
    (minor_words_of n (fun _ -> ignore (Mig.lookup ~below:id g xs.(0) xs.(1) xs.(2))));
  check "is_maj" (minor_words_of n (fun i -> ignore (Mig.is_maj g (i mod Mig.num_nodes g))));
  check "child" (minor_words_of n (fun i -> ignore (Mig.child g id (i mod 3))))

(* The 4-byte strash slots bound a graph at 2^31 - 1 nodes: a larger size
   hint is refused before anything is allocated.  (Growing a graph to the
   limit would take tens of gigabytes, so only the hint is checked here.) *)
let test_node_limit () =
  List.iter
    (fun nodes ->
      Alcotest.check_raises (Printf.sprintf "create_sized ~nodes:%d" nodes)
        (Invalid_argument
           (Printf.sprintf "Mig.create_sized: %d nodes exceed the limit of 2147483647" nodes))
        (fun () -> ignore (Mig.create_sized ~nodes ()));
      Alcotest.check_raises (Printf.sprintf "create_twin ~nodes:%d" nodes)
        (Invalid_argument
           (Printf.sprintf "Mig.create_twin: %d nodes exceed the limit of 2147483647" nodes))
        (fun () -> ignore (Mig.create_twin ~nodes (Mig.create ()))))
    [ 1 lsl 31; max_int ]

let test_id_range () =
  let g, a, b, c = fresh3 () in
  let n = Mig.num_nodes g in
  ignore (Mig.maj g a b c);
  let n' = Mig.num_nodes g in
  check_int "one node added" (n + 1) n';
  List.iter
    (fun id ->
      let raises name f =
        match f () with
        | _ -> Alcotest.failf "%s %d: no exception" name id
        | exception Invalid_argument _ -> ()
      in
      raises "kind" (fun () -> ignore (Mig.kind g id));
      raises "is_maj" (fun () -> ignore (Mig.is_maj g id));
      raises "child" (fun () -> ignore (Mig.child g id 0)))
    [ -1; min_int; n'; n' + 1; 1 lsl 40 ]

(* Storage size is not observable: a graph that outgrows its hint, or
   starts at the default size (so its arrays and strash double many
   times), gets the ids of one sized up front. *)
let test_outgrown_hint () =
  let build g =
    let st = Random.State.make [| 11 |] in
    let sigs = Vec.create ~dummy:Mig.false_ () in
    for i = 0 to 5 do
      ignore (Vec.push sigs (Mig.add_input g (Printf.sprintf "i%d" i)))
    done;
    let pick () =
      let s = Vec.get sigs (Random.State.int st (Vec.length sigs)) in
      if Random.State.bool st then Mig.not_ s else s
    in
    let made = Vec.create ~dummy:Mig.false_ () in
    for _ = 1 to 3000 do
      let s = Mig.maj g (pick ()) (pick ()) (pick ()) in
      ignore (Vec.push made s);
      ignore (Vec.push sigs s)
    done;
    Mig.add_output g "y" (Vec.get made (Vec.length made - 1));
    Vec.to_array made
  in
  (* the reference never grows; the others double at different sizes *)
  let g_ref = Mig.create_sized ~nodes:5000 () in
  let s_ref = build g_ref in
  check_bool "the hint held" true (Mig.num_nodes g_ref <= 5000);
  check_bool "hint 100 is outgrown" true (Mig.num_nodes g_ref > 1000);
  List.iter
    (fun (what, g) ->
      let s = build g in
      check_int (what ^ ": same node count") (Mig.num_nodes g_ref) (Mig.num_nodes g);
      check_bool (what ^ ": same signals") true (s = s_ref);
      for id = 0 to Mig.num_nodes g - 1 do
        if Mig.kind g id <> Mig.kind g_ref id then Alcotest.failf "%s: node %d differs" what id
      done)
    [ ("create ()", Mig.create ()); ("hint 100", Mig.create_sized ~nodes:100 ()) ]

(* --- strash model ------------------------------------------------------- *)

(* The reference strash: the polymorphic table of sorted signal triples
   the graph once kept, over signals as plain ints (node * 2 + polarity).
   [children] lets the random calls re-ask for existing nodes. *)
type model = {
  table : (int * int * int, int) Hashtbl.t;
  children : (int, int * int * int) Hashtbl.t;
  mutable nodes : int;
}

let int_of_signal s = (2 * Mig.node_of s) + if Mig.is_complemented s then 1 else 0
let signal_of_int i = Mig.signal (i lsr 1) (i land 1 = 1)

let model_of g =
  let m =
    { table = Hashtbl.create 64; children = Hashtbl.create 64; nodes = Mig.num_nodes g }
  in
  for id = 0 to Mig.num_nodes g - 1 do
    match Mig.kind g id with
    | Mig.Maj (a, b, c) ->
      let key = (int_of_signal a, int_of_signal b, int_of_signal c) in
      Hashtbl.replace m.table key id;
      Hashtbl.replace m.children id key
    | Mig.Const | Mig.Input _ -> ()
  done;
  m

let model_find m a b c =
  match List.sort compare [ a; b; c ] with
  | [ a; b; c ] ->
    if a = b then `Reduced a
    else if b = c then `Reduced b
    else if a lsr 1 = b lsr 1 then `Reduced c
    else if b lsr 1 = c lsr 1 then `Reduced a
    else begin
      match Hashtbl.find_opt m.table (a, b, c) with
      | Some id -> `Node id
      | None -> `Absent (a, b, c)
    end
  | _ -> assert false

let model_maj m a b c =
  match model_find m a b c with
  | `Reduced s -> s
  | `Node id -> 2 * id
  | `Absent key ->
    let id = m.nodes in
    m.nodes <- id + 1;
    Hashtbl.add m.table key id;
    Hashtbl.add m.children id key;
    2 * id

let model_lookup m ~below a b c =
  match model_find m a b c with
  | `Reduced s -> Some s
  | `Node id when id < below -> Some (2 * id)
  | `Node _ | `Absent _ -> None

(* [ops] random maj / lookup ~below / add_input calls on [g] and [m];
   false at the first answer or node count that differs. *)
let agrees_with_model rng g m ~ops =
  let int n = Random.State.int rng n in
  let operands () =
    let id = int m.nodes in
    match Hashtbl.find_opt m.children id with
    | Some (a, b, c) when int 2 = 0 ->
      (* an existing node, permuted, sometimes with one edge flipped *)
      let flip s = if int 4 = 0 then s lxor 1 else s in
      (match int 3 with 0 -> (c, flip a, b) | 1 -> (b, c, a) | _ -> (a, b, flip c))
    | _ ->
      let s () = (2 * int m.nodes) + int 2 in
      let a = s () and b = s () in
      (a, b, if int 8 = 0 then a lxor int 2 else s ())
  in
  let rec go k =
    k = 0
    || begin
      let same =
        match int 10 with
        | 0 ->
          let name = Printf.sprintf "in%d" (Mig.num_inputs g) in
          let s = int_of_signal (Mig.add_input g name) in
          let id = m.nodes in
          m.nodes <- id + 1;
          s = 2 * id
        | 1 | 2 | 3 ->
          let a, b, c = operands () in
          let below = int (m.nodes + 2) in
          Option.map int_of_signal
            (Mig.lookup ~below g (signal_of_int a) (signal_of_int b) (signal_of_int c))
          = model_lookup m ~below a b c
        | _ ->
          let a, b, c = operands () in
          int_of_signal (Mig.maj g (signal_of_int a) (signal_of_int b) (signal_of_int c))
          = model_maj m a b c
      in
      same && Mig.num_nodes g = m.nodes && go (k - 1)
    end
  in
  go ops

let add_random_outputs rng g m =
  for i = 0 to 49 do
    Mig.add_output g (Printf.sprintf "o%d" i)
      (signal_of_int ((2 * Random.State.int rng m.nodes) + Random.State.int rng 2))
  done

(* From [Mig.create ()] past 2 000 nodes (several table growths), then on
   a presized [cleanup] copy of the result. *)
let strash_matches_model =
  QCheck.Test.make ~count:20 ~name:"strash answers like a reference Hashtbl model"
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let g = Mig.create () in
      ignore (Mig.add_input g "x");
      ignore (Mig.add_input g "y");
      let m = model_of g in
      let grown = agrees_with_model rng g m ~ops:5000 && Mig.num_nodes g > 2000 in
      add_random_outputs rng g m;
      let copy = Mig.cleanup g in
      grown && agrees_with_model rng copy (model_of copy) ~ops:2000)

(* Twins share one strash: from a graph sized for 16 nodes (a 256-slot
   table) past 600 nodes (at least two doublings), then a plain-[maj]
   [rebuild_into] into the other twin and more calls there, three times
   over.  Every answer must be the reference model's for the graph last
   built into. *)
let strash_twins_match_model =
  QCheck.Test.make ~count:10 ~name:"twins' strash answers like a reference Hashtbl model"
    QCheck.small_int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let a = Mig.create_sized ~nodes:16 () in
      let b = Mig.create_twin ~nodes:16 a in
      ignore (Mig.add_input a "x");
      ignore (Mig.add_input a "y");
      let m = model_of a in
      let grown = agrees_with_model rng a m ~ops:1500 && Mig.num_nodes a > 600 in
      let rec alternate i src m into =
        i = 0
        || begin
          add_random_outputs rng src m;
          Mig.rebuild_into ~map:(Array.make (Mig.num_nodes src) Mig.false_) src ~into
            ~rule:(fun g' ~old_id:_ x y z -> Mig.maj g' x y z);
          let m' = model_of into in
          agrees_with_model rng into m' ~ops:1500 && alternate (i - 1) into m' src
        end
      in
      grown && alternate 3 a m b)

(* --- inspection -------------------------------------------------------- *)

let test_levels_depth () =
  let g, a, b, c = fresh3 () in
  let n1 = Mig.maj g a b c in
  let n2 = Mig.maj g n1 a b in
  Mig.add_output g "y" n2;
  let lv = Mig.levels g in
  check_int "input level" 0 lv.(Mig.node_of a);
  check_int "level 1" 1 lv.(Mig.node_of n1);
  check_int "level 2" 2 lv.(Mig.node_of n2);
  check_int "depth" 2 (Mig.depth g)

let test_fanouts_reachability () =
  let g, a, b, c = fresh3 () in
  let n1 = Mig.maj g a b c in
  let n2 = Mig.maj g n1 a b in
  let dead = Mig.maj g n1 (Mig.not_ b) c in
  Mig.add_output g "y" n2;
  let mark = Mig.reachable g in
  check_bool "n2 reachable" true mark.(Mig.node_of n2);
  check_bool "dead not reachable" false mark.(Mig.node_of dead);
  check_int "size counts reachable only" 2 (Mig.size g);
  let fc = Mig.fanout_counts g in
  check_int "n1 fanout (reachable only)" 1 fc.(Mig.node_of n1);
  check_int "a fanout" 2 fc.(Mig.node_of a);
  let orefs = Mig.output_refs g in
  check_int "n2 po refs" 1 orefs.(Mig.node_of n2);
  let fl = Mig.fanouts g in
  Alcotest.(check (array int)) "n1 parents" [| Mig.node_of n2 |] fl.(Mig.node_of n1)

let test_cleanup () =
  let g, a, b, c = fresh3 () in
  let n1 = Mig.maj g a b c in
  ignore (Mig.maj g n1 (Mig.not_ b) c);
  Mig.add_output g "y" n1;
  let g' = Mig.cleanup g in
  check_int "dead removed" 1 (Mig.size g');
  check_int "inputs preserved" 3 (Mig.num_inputs g');
  check_int "outputs preserved" 1 (Mig.num_outputs g')

let test_complemented_edges () =
  let g, a, b, c = fresh3 () in
  let n = Mig.maj g (Mig.not_ a) (Mig.not_ b) c in
  Mig.add_output g "y" (Mig.not_ n);
  check_int "2 complemented child edges, PO polarity uncounted" 2
    (Mig.num_complemented_edges g)

(* --- evaluation vs truth tables ---------------------------------------- *)

let random_mig seed =
  Mig_gen.random ~seed ~num_inputs:5 ~num_nodes:30 ~num_outputs:4 ()

let eval_matches_tables =
  QCheck.Test.make ~count:60 ~name:"eval agrees with output_tables"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      let tables = Mig.output_tables g in
      let ok = ref true in
      for m = 0 to 31 do
        let v = Array.init 5 (fun i -> (m lsr i) land 1 = 1) in
        let out = Mig.eval g v in
        Array.iteri (fun o tt -> if Tt.eval tt v <> out.(o) then ok := false) tables
      done;
      !ok)

(* cleanup, and the plain-[maj] rebuild into a fresh target it is made
   of *)
let cleanup_preserves =
  QCheck.Test.make ~count:60 ~name:"cleanup preserves functionality"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      let copy = Mig.create () in
      Mig.rebuild_into ~map:(Array.make (Mig.num_nodes g) Mig.false_) g ~into:copy
        ~rule:(fun g' ~old_id:_ a b c -> Mig.maj g' a b c);
      let t = Mig.output_tables g in
      Array.for_all2 Tt.equal t (Mig.output_tables (Mig.cleanup g))
      && Array.for_all2 Tt.equal t (Mig.output_tables copy))

let test_eval_arity () =
  let g, a, b, c = fresh3 () in
  Mig.add_output g "y" (Mig.maj g a b c);
  List.iter
    (fun values ->
      Alcotest.check_raises
        (Printf.sprintf "%d values for 3 inputs" (Array.length values))
        (Invalid_argument "Mig.eval: input arity mismatch")
        (fun () -> ignore (Mig.eval g values)))
    [ [||]; [| true; false |]; [| true; false; true; false |] ]

(* cleanup returns a compact graph, and rebuilding a compact graph
   reproduces it node for node *)
let cleanup_is_compact =
  QCheck.Test.make ~count:60 ~name:"cleanup is compact and reproduces compact graphs"
    QCheck.small_int (fun seed ->
      let g' = Mig.cleanup (random_mig seed) in
      Mig.is_compact g' && Mig_io.to_string (Mig.cleanup g') = Mig_io.to_string g')

(* --- io ----------------------------------------------------------------- *)

let parse text =
  match Mig_io.of_string text with Ok g -> g | Error e -> Alcotest.fail e

let test_io_roundtrip_manual () =
  let g, a, b, c = fresh3 () in
  let n1 = Mig.maj g a (Mig.not_ b) c in
  Mig.add_output g "y" (Mig.not_ n1);
  Mig.add_output g "z" a;
  let g' = parse (Mig_io.to_string g) in
  check_int "inputs" 3 (Mig.num_inputs g');
  check_int "outputs" 2 (Mig.num_outputs g');
  check_int "size" 1 (Mig.size g');
  let t = Mig.output_tables g and t' = Mig.output_tables g' in
  check_bool "functionally equal" true (Array.for_all2 Tt.equal t t')

let io_roundtrip =
  QCheck.Test.make ~count:40 ~name:"mig text format roundtrip"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      let g' = parse (Mig_io.to_string g) in
      Mig.num_inputs g' = Mig.num_inputs g
      && Mig.num_outputs g' = Mig.num_outputs g
      && Array.for_all2 Tt.equal (Mig.output_tables g) (Mig.output_tables g'))

let check_error what expected text =
  Alcotest.(check (result reject string))
    what (Error expected)
    (Result.map ignore (Mig_io.of_string text))

let test_io_errors () =
  check_error "missing header" "Mig_io.of_string: line 1: expected 'mig' header"
    ".node 1 2 3 4";
  check_error "unknown operand"
    "Mig_io.of_string: line 2: operand references unknown node 9" "mig\n.node 4 9 9 9"

(* every malformed file is an [Error] naming its line, never an exception *)
let test_io_fails_closed () =
  check_error "duplicate input" "Mig_io.of_string: line 3: duplicate input \"a\""
    "mig\n.input 1 a\n.input 2 a\n";
  check_error "id defined twice" "Mig_io.of_string: line 5: node 3 defined twice"
    "mig\n.input 1 a\n.input 2 b\n.node 3 1 2 0\n.node 3 1 ~2 0\n";
  check_error "input rebinds the constant" "Mig_io.of_string: line 2: node 0 defined twice"
    "mig\n.input 0 a\n";
  check_error "empty input"
    "Mig_io.of_string: line 1: no 'mig' header before the end of the input" "";
  check_error "comments only"
    "Mig_io.of_string: line 3: no 'mig' header before the end of the input"
    "# a\n\n# b";
  check_error "bad operand" "Mig_io.of_string: line 3: bad operand"
    "mig\n.input 1 a\n.node 2 1 ~ 0\n";
  check_error "bad id" "Mig_io.of_string: line 2: bad node id" "mig\n.node x 0 0 0\n";
  check_error "unrecognised" "Mig_io.of_string: line 2: unrecognised line"
    "mig\n.latch a b\n";
  match Mig_io.read_file "/nonexistent/plim.mig" with
  | Ok _ -> Alcotest.fail "read a missing file"
  | Error _ -> ()

(* a directory opens on Linux; reading it must be an [Error] naming it,
   not the EOVERFLOW of sizing it *)
let test_io_directory () =
  let dir = Filename.current_dir_name in
  Alcotest.(check (result unit string))
    "directory" (Error (dir ^ ": is a directory"))
    (Result.map ignore (Mig_io.read_file dir))

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_dot () =
  let g, a, b, c = fresh3 () in
  Mig.add_output g "y" (Mig.maj g a (Mig.not_ b) c);
  let dot = Mig_io.to_dot g in
  check_bool "digraph" true (String.length dot > 0 && String.sub dot 0 7 = "digraph");
  check_bool "has dashed edge" true (contains dot "dashed")

(* --- blif ------------------------------------------------------------------ *)

module Blif = Plim_mig.Blif

let blif_of_string text =
  match Blif.of_string text with Ok g -> g | Error e -> Alcotest.fail e

let test_blif_parse () =
  let text =
    "# a 2:1 mux with a don't-care cube\n\
     .model mux\n\
     .inputs s a b\n\
     .outputs y\n\
     .names s a b y\n\
     11- 1\n\
     0-1 1\n\
     .end\n"
  in
  let g = blif_of_string text in
  check_int "inputs" 3 (Mig.num_inputs g);
  check_int "outputs" 1 (Mig.num_outputs g);
  for m = 0 to 7 do
    let s = m land 1 = 1 and a = m land 2 = 2 and b = m land 4 = 4 in
    let out = Mig.eval g [| s; a; b |] in
    check_bool "mux semantics" (if s then a else b) out.(0)
  done

let test_blif_offset_cover () =
  (* cover given by its off-set (output column 0) *)
  let text = ".model f\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n" in
  let g = blif_of_string text in
  for m = 0 to 3 do
    let a = m land 1 = 1 and b = m land 2 = 2 in
    check_bool "nand" (not (a && b)) (Mig.eval g [| a; b |]).(0)
  done

let test_blif_constants_and_continuation () =
  let text =
    ".model k\n.inputs a\n.outputs one zero pass\n.names one\n1\n.names zero\n\
     .names a \\\npass\n1 1\n.end\n"
  in
  let g = blif_of_string text in
  let out = Mig.eval g [| true |] in
  Alcotest.(check (array bool)) "consts + buffer" [| true; false; true |] out

let test_blif_errors () =
  let check_error what expected text =
    Alcotest.(check (result unit string))
      what (Error expected)
      (Result.map ignore (Blif.of_string text))
  in
  check_error "latch rejected"
    "Blif.of_string: line 2: only combinational single-model BLIF is supported"
    ".model x\n.latch a b\n.end\n";
  check_error "arity mismatch rejected"
    "Blif.of_string: line 5: cube arity does not match .names inputs"
    ".model x\n.inputs a b\n.outputs y\n.names a b y\n1 1\n.end\n";
  check_error "undriven output rejected"
    "Blif.of_string: line 3: undriven signal \"y\""
    ".model x\n.inputs a\n.outputs y\n.end\n";
  check_error "duplicate input rejected"
    "Blif.of_string: line 2: duplicate input \"a\""
    ".model x\n.inputs a a\n.outputs y\n.names a y\n1 1\n.end\n";
  check_error "combinational cycle rejected"
    "Blif.of_string: line 4: combinational cycle through \"y\""
    ".model x\n.inputs a\n.outputs y\n.names a z y\n11 1\n.names y z\n1 1\n.end\n";
  check_error "bad cube character rejected"
    "Blif.of_string: line 5: bad cube character 'x'"
    ".model x\n.inputs a\n.outputs y\n.names a y\nx 1\n.end\n";
  Alcotest.(check (result unit string))
    "missing file" (Error "no-such-file.blif: No such file or directory")
    (Result.map ignore (Blif.read_file "no-such-file.blif"))

let test_blif_directory () =
  let dir = Filename.current_dir_name in
  Alcotest.(check (result unit string))
    "directory" (Error (dir ^ ": is a directory"))
    (Result.map ignore (Blif.read_file dir))

let blif_roundtrip =
  QCheck.Test.make ~count:40 ~name:"blif write/read roundtrip preserves function"
    QCheck.small_int (fun seed ->
      let g = random_mig seed in
      let g' = blif_of_string (Blif.to_string g) in
      Mig.num_inputs g' = Mig.num_inputs g
      && Mig.num_outputs g' = Mig.num_outputs g
      && Array.for_all2 Tt.equal (Mig.output_tables g) (Mig.output_tables g'))

let test_blif_roundtrip_adder () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let g' = blif_of_string (Blif.to_string g) in
  check_bool "adder roundtrip" true
    (Array.for_all2 Tt.equal (Mig.output_tables g) (Mig.output_tables g'))

(* --- generator ----------------------------------------------------------- *)

let test_gen_counts () =
  let g = Mig_gen.random ~seed:1 ~num_inputs:7 ~num_nodes:50 ~num_outputs:5 () in
  check_int "inputs" 7 (Mig.num_inputs g);
  check_int "outputs" 5 (Mig.num_outputs g);
  check_bool "about the right size" true (Mig.size g > 30 && Mig.size g <= 50)

let test_gen_deterministic () =
  let build () =
    Mig_io.to_string (Mig_gen.random ~seed:123 ~num_inputs:6 ~num_nodes:40 ~num_outputs:3 ())
  in
  Alcotest.(check string) "same seed, same graph" (build ()) (build ())

let test_gen_distinct_seeds () =
  let build seed =
    Mig_io.to_string (Mig_gen.random ~seed ~num_inputs:6 ~num_nodes:40 ~num_outputs:3 ())
  in
  check_bool "different seeds differ" true (build 1 <> build 2)

let qc = QCheck_alcotest.to_alcotest

(* A rebuild into a reused target: one sized for a far smaller graph (its
   arrays and strash are replaced, and the rule's extra nodes outgrow
   them again), and one left holding a far larger graph (kept, cleared).
   Both must give the ids, signals and strash answers of a rebuild into
   [create ()]. *)
let test_rebuild_into_reused () =
  let g = Mig.cleanup (Mig_gen.random ~seed:5 ~num_inputs:8 ~num_nodes:600 ~num_outputs:6 ()) in
  (* every node also builds dead nodes, so the target outgrows [g] *)
  let rule g' ~old_id:_ a b c =
    ignore (Mig.maj g' (Mig.not_ a) b c);
    ignore (Mig.maj g' a (Mig.not_ b) c);
    Mig.maj g' a b c
  in
  let rebuild into =
    let map = Array.make (Mig.num_nodes g + 7) Mig.true_ in
    Mig.rebuild_into ~map g ~into ~rule;
    (into, Array.sub map 0 (Mig.num_nodes g))
  in
  check_bool "the rule outgrows the source" true
    (Mig.num_nodes (fst (rebuild (Mig.create ()))) > Mig.num_nodes g);
  let small = Mig.create () in
  ignore (Mig.maj small (Mig.add_input small "p") (Mig.add_input small "q") Mig.true_);
  let large = Mig_gen.random ~seed:9 ~num_inputs:12 ~num_nodes:5000 ~num_outputs:3 () in
  List.iter
    (fun (what, into) ->
      let reference, ref_map = rebuild (Mig.create ()) in
      let into, map = rebuild into in
      check_int (what ^ ": node count") (Mig.num_nodes reference) (Mig.num_nodes into);
      check_bool (what ^ ": same .mig text") true
        (String.equal (Mig_io.to_string reference) (Mig_io.to_string into));
      check_bool (what ^ ": same map") true
        (Array.for_all2 signal_equal ref_map map);
      for id = 0 to Mig.num_nodes into - 1 do
        check_bool (Printf.sprintf "%s: node %d" what id) true
          (Mig.kind reference id = Mig.kind into id);
        if Mig.is_maj into id then begin
          let a = Mig.child into id 0 and b = Mig.child into id 1 and c = Mig.child into id 2 in
          check_bool (Printf.sprintf "%s: strash finds node %d" what id) true
            (Mig.lookup ~below:max_int into a b c = Some (Mig.signal id false))
        end
      done;
      let x = Mig.input_signal into 0 and y = Mig.input_signal into 1 in
      check_bool (what ^ ": the next fresh node") true
        (signal_equal
           (Mig.maj reference x (Mig.not_ y) Mig.true_)
           (Mig.maj into x (Mig.not_ y) Mig.true_)))
    [ ("undersized", small); ("oversized", large) ];
  Alcotest.check_raises "a graph is not its own target"
    (Invalid_argument "Mig.rebuild_into: target is the source") (fun () ->
      ignore (rebuild g))

(* Rebuilds alternating between two twins, each from the other, the way
   [Recipe] uses them: every step must give the graph, the map and the
   strash answers of a rebuild into [create ()], although the twins hold
   one strash and the rule outgrows both (node arrays sized for 50 nodes,
   a strash for 256 slots). *)
let test_twins_alternate () =
  let g = Mig.cleanup (Mig_gen.random ~seed:11 ~num_inputs:8 ~num_nodes:400 ~num_outputs:5 ()) in
  let rule g' ~old_id:_ a b c =
    ignore (Mig.maj g' (Mig.not_ a) b c);
    Mig.maj g' a b c
  in
  let rebuild src into =
    let map = Array.make (Mig.num_nodes src) Mig.true_ in
    Mig.rebuild_into ~map src ~into ~rule;
    map
  in
  let a = Mig.create_sized ~nodes:50 () in
  let b = Mig.create_twin ~nodes:50 a in
  check_bool "one strash" true (a.Mig.strash == b.Mig.strash);
  check_bool "own node arrays" true (a.Mig.tag != b.Mig.tag && a.Mig.c0 != b.Mig.c0);
  let rec step i src into other =
    if i < 4 then begin
      let reference = Mig.create () in
      let ref_map = rebuild src reference in
      let map = rebuild src into in
      let what = Printf.sprintf "step %d" i in
      check_bool (what ^ ": same .mig text") true
        (String.equal (Mig_io.to_string reference) (Mig_io.to_string into));
      check_bool (what ^ ": same map") true (Array.for_all2 signal_equal ref_map map);
      for id = 0 to Mig.num_nodes into - 1 do
        if Mig.is_maj into id then begin
          let x = Mig.child into id 0 and y = Mig.child into id 1 and z = Mig.child into id 2 in
          check_bool (Printf.sprintf "%s: strash finds node %d" what id) true
            (Mig.lookup ~below:max_int into x y z = Some (Mig.signal id false))
        end
      done;
      step (i + 1) into other into
    end
  in
  step 0 g a b

let () =
  Alcotest.run "mig"
    [ ( "construction",
        [ Alcotest.test_case "signals" `Quick test_signals;
          Alcotest.test_case "omega.M on create" `Quick test_omega_m_on_create;
          Alcotest.test_case "structural hashing" `Quick test_strash;
          Alcotest.test_case "lookup" `Quick test_lookup;
          Alcotest.test_case "lookup below a bound" `Quick test_lookup_below;
          Alcotest.test_case "derived gates" `Quick test_gate_semantics;
          Alcotest.test_case "duplicate input" `Quick test_duplicate_input;
          Alcotest.test_case "duplicate input after a copy" `Quick
            test_duplicate_input_after_copy;
          Alcotest.test_case "20 000 inputs in linear time" `Quick test_many_inputs_linear;
          qc strash_matches_model;
          qc strash_twins_match_model ] );
      ( "primitives",
        [ Alcotest.test_case "allocate nothing" `Quick test_primitives_allocate_nothing;
          Alcotest.test_case "ids out of range raise" `Quick test_id_range;
          Alcotest.test_case "a size hint past the node limit raises" `Quick
            test_node_limit;
          Alcotest.test_case "an outgrown size hint changes no id" `Quick
            test_outgrown_hint;
          Alcotest.test_case "a reused rebuild target changes no id" `Quick
            test_rebuild_into_reused;
          Alcotest.test_case "twins alternate one strash" `Quick test_twins_alternate ] );
      ( "inspection",
        [ Alcotest.test_case "levels/depth" `Quick test_levels_depth;
          Alcotest.test_case "fanouts/reachability" `Quick test_fanouts_reachability;
          Alcotest.test_case "cleanup" `Quick test_cleanup;
          Alcotest.test_case "complemented edges" `Quick test_complemented_edges ] );
      ( "evaluation",
        [ qc eval_matches_tables; qc cleanup_preserves; qc cleanup_is_compact;
          Alcotest.test_case "an input vector of the wrong length raises" `Quick
            test_eval_arity ] );
      ( "io",
        [ Alcotest.test_case "roundtrip (manual)" `Quick test_io_roundtrip_manual;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "malformed input fails closed" `Quick test_io_fails_closed;
          Alcotest.test_case "a directory is refused" `Quick test_io_directory;
          Alcotest.test_case "dot export" `Quick test_dot;
          qc io_roundtrip ] );
      ( "blif",
        [ Alcotest.test_case "parse mux" `Quick test_blif_parse;
          Alcotest.test_case "off-set cover" `Quick test_blif_offset_cover;
          Alcotest.test_case "constants/continuation" `Quick
            test_blif_constants_and_continuation;
          Alcotest.test_case "errors" `Quick test_blif_errors;
          Alcotest.test_case "a directory is refused" `Quick test_blif_directory;
          Alcotest.test_case "adder roundtrip" `Quick test_blif_roundtrip_adder;
          qc blif_roundtrip ] );
      ( "generator",
        [ Alcotest.test_case "counts" `Quick test_gen_counts;
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "seed-sensitive" `Quick test_gen_distinct_seeds ] ) ]
