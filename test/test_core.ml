module Mig = Plim_mig.Mig
module Mig_gen = Plim_mig.Mig_gen
module Gen = Plim_check.Gen
module Alloc = Plim_core.Alloc
module Select = Plim_core.Select
module Pipeline = Plim_core.Pipeline
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module I = Plim_isa.Instruction
module Stats = Plim_stats.Stats
module Recipe = Plim_rewrite.Recipe
module Suite = Plim_benchgen.Suite
module Controller = Plim_machine.Plim_controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- allocator ----------------------------------------------------------- *)

let test_alloc_lifo () =
  let t = Alloc.create ~strategy:Alloc.Lifo () in
  let a = Alloc.request t and b = Alloc.request t in
  check_int "fresh 0" 0 a;
  check_int "fresh 1" 1 b;
  Alloc.release t a;
  Alloc.release t b;
  check_int "most recently freed first" b (Alloc.request t);
  check_int "then the other" a (Alloc.request t);
  check_int "total" 2 (Alloc.total_allocated t)

let test_alloc_fifo () =
  let t = Alloc.create ~strategy:Alloc.Fifo () in
  let a = Alloc.request t and b = Alloc.request t in
  Alloc.release t a;
  Alloc.release t b;
  check_int "oldest freed first" a (Alloc.request t);
  check_int "then newer" b (Alloc.request t)

let test_alloc_min_write () =
  let t = Alloc.create ~strategy:Alloc.Min_write () in
  let a = Alloc.request t and b = Alloc.request t in
  Alloc.note_write t a;
  Alloc.note_write t a;
  Alloc.note_write t b;
  Alloc.release t a;
  Alloc.release t b;
  check_int "least-written first" b (Alloc.request t);
  check_int "then the worn one" a (Alloc.request t);
  check_int "free count" 0 (Alloc.free_count t)

let test_alloc_cap_retire () =
  let t = Alloc.create ~max_write:3 ~strategy:Alloc.Min_write () in
  let a = Alloc.request t in
  Alloc.note_write t a;
  Alloc.note_write t a;
  (* a has 2 writes; 2 + 2 > 3, so it is retired on release *)
  Alloc.release t a;
  check_int "retired, not pooled" 0 (Alloc.free_count t);
  let b = Alloc.request t in
  check_bool "fresh device instead" true (b <> a)

let test_alloc_can_write () =
  let t = Alloc.create ~max_write:3 ~strategy:Alloc.Lifo () in
  let a = Alloc.request t in
  check_bool "0 writes ok" true (Alloc.can_write t a);
  Alloc.note_write t a;
  Alloc.note_write t a;
  Alloc.note_write t a;
  check_bool "at cap" false (Alloc.can_write t a);
  Alcotest.check_raises "past cap" (Invalid_argument "Alloc.note_write: cell 0 exceeds cap 3")
    (fun () -> Alloc.note_write t a)

let test_alloc_needed () =
  let t = Alloc.create ~max_write:5 ~strategy:Alloc.Min_write () in
  let a = Alloc.request t in
  Alloc.note_write t a;
  Alloc.note_write t a;
  Alloc.note_write t a;
  (* a has 3 writes: poolable (3+2 <= 5) but cannot serve needed:3 *)
  Alloc.release t a;
  check_int "pooled" 1 (Alloc.free_count t);
  let b = Alloc.request ~needed:3 t in
  check_bool "fresh for needed=3" true (b <> a);
  check_int "a still pooled" 1 (Alloc.free_count t);
  check_int "a reused for needed=2" a (Alloc.request ~needed:2 t)

let test_alloc_cap_validation () =
  Alcotest.check_raises "cap too small" (Invalid_argument "Alloc.create: max_write must be >= 3")
    (fun () -> ignore (Alloc.create ~max_write:2 ~strategy:Alloc.Lifo ()))

let test_alloc_lifo_needed_preserves_order () =
  let t = Alloc.create ~max_write:8 ~strategy:Alloc.Lifo () in
  let cells = List.init 3 (fun _ -> Alloc.request t) in
  (* wear the last-released one so it cannot serve needed:3 *)
  (match cells with
  | [ _; _; c ] ->
    for _ = 1 to 6 do Alloc.note_write t c done
  | _ -> assert false);
  List.iter (Alloc.release t) cells;
  (* top of stack (cell 2, 6 writes) cannot take 3 writes; hunt skips it *)
  let got = Alloc.request ~needed:3 t in
  check_int "skips worn top" 1 got;
  (* worn cell is still first for a smaller request *)
  check_int "worn top restored" 2 (Alloc.request ~needed:2 t)

let test_alloc_fifo_needed_requeues () =
  let t = Alloc.create ~max_write:8 ~strategy:Alloc.Fifo () in
  let cells = List.init 3 (fun _ -> Alloc.request t) in
  (* wear the first-released one so it cannot serve needed:3 *)
  (match cells with
  | [ a; _; _ ] ->
    for _ = 1 to 6 do Alloc.note_write t a done
  | _ -> assert false);
  List.iter (Alloc.release t) cells;
  (* head of queue (cell 0, 6 writes) cannot take 3 writes; hunt skips it *)
  check_int "skips worn head" 1 (Alloc.request ~needed:3 t);
  (* the worn cell rejoined at the back, behind cell 2 *)
  check_int "next in queue" 2 (Alloc.request ~needed:2 t);
  check_int "worn head requeued last" 0 (Alloc.request ~needed:2 t)

(* Reference model: the three pools as separate structures, as lists.
   Lifo is a stack (top first) whose hunt restores the order of the
   cells it skips; Fifo is a queue (front first) whose skipped cells
   rejoin at the back; Min_write takes the least-written (writes, cell)
   or gives up when that one does not fit. *)
type model = {
  strategy : Alloc.strategy;
  cap : int option;
  writes : (int, int) Hashtbl.t;
  mutable total : int;
  mutable pool : int list;
}

let model_writes m c = Hashtbl.find m.writes c

let model_fits m needed c =
  match m.cap with None -> true | Some w -> model_writes m c + needed <= w

let model_request m needed =
  let fresh () =
    let c = m.total in
    m.total <- c + 1;
    Hashtbl.replace m.writes c 0;
    c
  in
  match m.strategy with
  | Alloc.Lifo | Alloc.Fifo ->
    let rec split skipped = function
      | [] -> None
      | c :: rest when model_fits m needed c -> Some (List.rev skipped, c, rest)
      | c :: rest -> split (c :: skipped) rest
    in
    (match split [] m.pool with
    | None -> fresh ()
    | Some (skipped, c, rest) ->
      m.pool <- (if m.strategy = Alloc.Lifo then skipped @ rest else rest @ skipped);
      c)
  | Alloc.Min_write ->
    (match List.sort compare (List.map (fun c -> (model_writes m c, c)) m.pool) with
    | (_, c) :: _ when model_fits m needed c ->
      m.pool <- List.filter (( <> ) c) m.pool;
      c
    | _ -> fresh ())

let model_release m c =
  if model_fits m 2 c then
    m.pool <- (if m.strategy = Alloc.Fifo then m.pool @ [ c ] else c :: m.pool)

(* [Write k] and [Release k] act on the [k mod n]-th of the n cells in use *)
type alloc_op = Request of int | Write of int | Release of int

let print_alloc_op = function
  | Request needed -> Printf.sprintf "request ~needed:%d" needed
  | Write k -> Printf.sprintf "write #%d" k
  | Release k -> Printf.sprintf "release #%d" k

let alloc_script_arb =
  QCheck.make
    ~print:(QCheck.Print.(pair (option int) (list print_alloc_op)))
    ~shrink:QCheck.Shrink.(pair nil list)
    QCheck.Gen.(
      pair
        (opt (int_range 3 12))
        (list_size (int_range 0 120)
           (frequency
              [ (3, map (fun n -> Request n) (int_range 2 3));
                (4, map (fun k -> Write k) (int_range 0 63));
                (3, map (fun k -> Release k) (int_range 0 63)) ])))

let alloc_matches_model strategy =
  let name =
    match strategy with Alloc.Lifo -> "lifo" | Alloc.Fifo -> "fifo" | Alloc.Min_write -> "min-write"
  in
  QCheck.Test.make ~count:300 ~name:(name ^ " pool matches the reference model") alloc_script_arb
    (fun (cap, ops) ->
      let t = Alloc.create ?max_write:cap ~strategy () in
      let m = { strategy; cap; writes = Hashtbl.create 16; total = 0; pool = [] } in
      let in_use = ref [] in
      let pick k = List.nth !in_use (k mod List.length !in_use) in
      List.for_all
        (fun op ->
          let same_cell =
            match op with
            | Request needed ->
              let c = Alloc.request ~needed t in
              in_use := !in_use @ [ c ];
              c = model_request m needed
            | Write k ->
              if !in_use <> [] then begin
                let c = pick k in
                if Alloc.can_write t c then begin
                  Alloc.note_write t c;
                  Hashtbl.replace m.writes c (model_writes m c + 1)
                end
              end;
              true
            | Release k ->
              if !in_use <> [] then begin
                let c = pick k in
                in_use := List.filter (( <> ) c) !in_use;
                Alloc.release t c;
                model_release m c
              end;
              true
          in
          same_cell
          && Alloc.free_count t = List.length m.pool
          && Alloc.total_allocated t = m.total)
        ops)

(* --- selection ------------------------------------------------------------ *)

(* structurally generated MIGs: a failing property shrinks to a minimal
   graph instead of an opaque integer seed *)
let desc_arb = Gen.arbitrary ~max_inputs:6 ~max_nodes:40 ~max_outputs:4 ()

(* topological validity: every policy computes children before parents *)
let pop_order_is_topological policy =
  QCheck.Test.make ~count:50
    ~name:(Printf.sprintf "%s pops children first" (Select.policy_name policy))
    desc_arb
    (fun d ->
      let g = Gen.to_mig d in
      let fanout = Mig.fanout_counts g in
      let out_refs = Mig.output_refs g in
      let pending = Array.init (Mig.num_nodes g) (fun i -> fanout.(i) + out_refs.(i)) in
      let sel = Select.create ~policy g ~pending in
      let seen = Array.make (Mig.num_nodes g) false in
      let ok = ref true in
      let total = ref 0 in
      let rec loop () =
        match Select.pop sel with
        | None -> ()
        | Some id ->
          incr total;
          (match Mig.kind g id with
          | Mig.Maj (a, b, c) ->
            List.iter
              (fun s ->
                let n = Mig.node_of s in
                match Mig.kind g n with
                | Mig.Maj _ -> if not seen.(n) then ok := false
                | Mig.Const | Mig.Input _ -> ())
              [ a; b; c ]
          | Mig.Const | Mig.Input _ -> ok := false);
          seen.(id) <- true;
          (* emulate the translator's pending updates *)
          (match Mig.kind g id with
          | Mig.Maj (a, b, c) ->
            List.iter
              (fun s ->
                let n = Mig.node_of s in
                if n <> 0 then begin
                  pending.(n) <- pending.(n) - 1;
                  if pending.(n) = 1 then Select.child_pending_dropped_to_one sel n
                end)
              [ a; b; c ]
          | Mig.Const | Mig.Input _ -> ());
          Select.computed sel id;
          loop ()
      in
      loop ();
      !ok && !total = Mig.size g)

let test_in_order_is_id_order () =
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  let c = Mig.add_input g "c" in
  let n1 = Mig.maj g a b c in
  let n2 = Mig.maj g a (Mig.not_ b) c in
  let n3 = Mig.maj g n1 n2 a in
  Mig.add_output g "y" n3;
  let fanout = Mig.fanout_counts g in
  let out_refs = Mig.output_refs g in
  let pending = Array.init (Mig.num_nodes g) (fun i -> fanout.(i) + out_refs.(i)) in
  let sel = Select.create ~policy:Select.In_order g ~pending in
  let order = ref [] in
  let rec drain () =
    match Select.pop sel with
    | None -> ()
    | Some id ->
      order := id :: !order;
      Select.computed sel id;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ascending ids"
    [ Mig.node_of n1; Mig.node_of n2; Mig.node_of n3 ]
    (List.rev !order)

(* --- end-to-end compilation ------------------------------------------------ *)

let all_configs =
  [ Pipeline.naive;
    Pipeline.dac16;
    Pipeline.min_write;
    Pipeline.endurance_rewrite;
    Pipeline.endurance_full;
    Pipeline.with_cap 3 Pipeline.endurance_full;
    Pipeline.with_cap 5 Pipeline.endurance_full;
    Pipeline.with_cap 10 Pipeline.naive;
    { Pipeline.endurance_full with Pipeline.allocation = Alloc.Fifo };
    { Pipeline.endurance_full with Pipeline.dest_min_write = true } ]

let compile_correct config =
  QCheck.Test.make ~count:25
    ~name:(Printf.sprintf "compile[%s] is functionally correct" (Pipeline.config_name config))
    desc_arb
    (fun d ->
      let g = Gen.to_mig d in
      let r = Pipeline.compile config g in
      match Verify.check_random ~trials:6 ~seed:0xC0DE g r.Pipeline.program with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "%s" e)

let cap_respected =
  QCheck.Test.make ~count:30 ~name:"max-write cap bounds every device"
    (QCheck.pair desc_arb (QCheck.int_range 3 12))
    (fun (d, cap) ->
      let g = Gen.to_mig d in
      let r = Pipeline.compile (Pipeline.with_cap cap Pipeline.endurance_full) g in
      let writes = Program.static_write_counts r.Pipeline.program in
      Array.for_all (fun w -> w <= cap) writes)

let summary_matches_program =
  QCheck.Test.make ~count:30 ~name:"write summary equals program static counts"
    desc_arb
    (fun d ->
      let r = Pipeline.compile Pipeline.endurance_full (Gen.to_mig d) in
      let s = Stats.summarize (Program.static_write_counts r.Pipeline.program) in
      s = r.Pipeline.write_summary)

let test_exhaustive_small () =
  (* exhaustive functional verification on a small circuit, every preset *)
  let g = Plim_benchgen.Arith.adder ~width:3 in
  List.iter
    (fun config ->
      let r = Pipeline.compile config g in
      match Verify.check_exhaustive g r.Pipeline.program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" (Pipeline.config_name config) e)
    all_configs

let test_verify_detects_corruption () =
  let g = Plim_benchgen.Arith.adder ~width:2 in
  let r = Pipeline.compile Pipeline.naive g in
  let p = r.Pipeline.program in
  (* flip the first instruction's destination semantics by replacing the
     whole instruction with a constant load *)
  let bad = Array.init (Program.length p) (Program.instr p) in
  bad.(Array.length bad - 1) <- I.set_const true (Program.instr p (Array.length bad - 1)).I.z;
  let corrupted =
    Program.make ~instrs:bad ~num_cells:p.Program.num_cells ~pi_cells:p.Program.pi_cells
      ~po_cells:p.Program.po_cells
  in
  check_bool "corruption detected" true
    (match Verify.check_exhaustive g corrupted with Ok () -> false | Error _ -> true)

let test_check_random_deterministic () =
  (* the randomized verifier is a pure function of its seed: two runs on
     the same (broken) program must produce byte-identical witnesses *)
  let g = Plim_benchgen.Arith.adder ~width:3 in
  let p = (Pipeline.compile Pipeline.naive g).Pipeline.program in
  let bad = Array.init (Program.length p) (Program.instr p) in
  bad.(Array.length bad - 1) <- I.set_const true (Program.instr p (Array.length bad - 1)).I.z;
  let corrupted =
    Program.make ~instrs:bad ~num_cells:p.Program.num_cells ~pi_cells:p.Program.pi_cells
      ~po_cells:p.Program.po_cells
  in
  let witness seed =
    match Verify.check_random ~trials:32 ~seed g corrupted with
    | Ok () -> Alcotest.failf "seed 0x%X failed to detect the corruption" seed
    | Error e -> e
  in
  Alcotest.(check string) "same seed, same witness" (witness 0xD5EED) (witness 0xD5EED);
  check_bool "witness names its seed" true
    (let e = witness 0xD5EED in
     (* substring search: the message embeds the seed for replay *)
     let needle = "seed 0xD5EED" in
     let ln = String.length needle and le = String.length e in
     let rec scan i = i + ln <= le && (String.sub e i ln = needle || scan (i + 1)) in
     scan 0)

(* a wrong program that passes its first 19 trials, write-count checks
   included: the witness names the late trial and its vector, byte for
   byte *)
let test_check_random_late_witness () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let p = (Pipeline.compile Pipeline.naive g).Pipeline.program in
  let bad = Array.init (Program.length p) (Program.instr p) in
  let swapped = bad.(6) in
  bad.(6) <- I.rm3 ~a:swapped.I.b ~b:swapped.I.a ~z:swapped.I.z;
  let corrupted =
    Program.make ~instrs:bad ~num_cells:p.Program.num_cells ~pi_cells:p.Program.pi_cells
      ~po_cells:p.Program.po_cells
  in
  Alcotest.(check (result unit string))
    "witness"
    (Error
       "seed 0x5EED trial 19 vector 11001001: output \"s_1\" differs: expected \
        false, machine computed true")
    (Verify.check_random g corrupted)

(* the static and analysed write counts are derived once per call, on the
   first trial that reaches the comparison, and never for zero trials *)
let test_check_random_counts_once () =
  let module Profile = Plim_obs.Profile in
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
  let derivations trials =
    Profile.reset ();
    Profile.enable ();
    let result = Verify.check_random ~trials g p in
    Profile.disable ();
    let n =
      List.length
        (List.filter (fun s -> s.Profile.name = "verify.static_counts") (Profile.spans ()))
    in
    Profile.reset ();
    Alcotest.(check (result unit string)) "correct program" (Ok ()) result;
    n
  in
  check_int "no trials" 0 (derivations 0);
  check_int "one trial" 1 (derivations 1);
  check_int "twelve trials" 1 (derivations 12)

let test_config_names () =
  Alcotest.(check string) "naive" "naive" (Pipeline.config_name Pipeline.naive);
  Alcotest.(check string) "endurance-full" "endurance-full"
    (Pipeline.config_name Pipeline.endurance_full);
  Alcotest.(check string) "capped" "endurance-full+cap10"
    (Pipeline.config_name (Pipeline.with_cap 10 Pipeline.endurance_full))

let test_pi_po_maps () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let r = Pipeline.compile Pipeline.endurance_full g in
  let p = r.Pipeline.program in
  check_int "pi count" 8 (Array.length p.Program.pi_cells);
  check_int "po count" 5 (Array.length p.Program.po_cells);
  (* all PI cells distinct *)
  let cells = Array.map snd p.Program.pi_cells in
  let sorted = Array.copy cells in
  Array.sort compare sorted;
  let distinct = ref true in
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then distinct := false
  done;
  check_bool "pi cells distinct" true !distinct

(* --- symbolic (BDD) verification -------------------------------------------- *)

let symbolic_random =
  QCheck.Test.make ~count:15 ~name:"random MIGs verify symbolically, all cells"
    (Gen.arbitrary ~max_inputs:7 ~max_nodes:60 ())
    (fun d ->
      let g = Gen.to_mig d in
      List.iter
        (fun config ->
          let r = Pipeline.compile config g in
          match Verify.check_symbolic g r.Pipeline.program with
          | Ok () -> ()
          | Error e -> QCheck.Test.fail_reportf "%s: %s" (Pipeline.config_name config) e)
        [ Pipeline.naive; Pipeline.endurance_full ];
      true)

let test_symbolic_wide_adder ~width config () =
  (* a [width]-bit adder: 2*width inputs — far beyond truth tables, linear
     as a BDD with interleaved operands.  Complete formal verification of
     the compiled program; width 128 is the paper's adder benchmark. *)
  let g = Plim_benchgen.Arith.adder ~width in
  let order = Plim_logic.Bdd.interleave 2 width in
  let r = Pipeline.compile config g in
  match Verify.check_symbolic ~order g r.Pipeline.program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

let test_symbolic_catches_corruption () =
  let g = Plim_benchgen.Arith.adder ~width:4 in
  let r = Pipeline.compile Pipeline.naive g in
  let p = r.Pipeline.program in
  let bad = Array.init (Program.length p) (Program.instr p) in
  let last = bad.(Array.length bad - 1) in
  bad.(Array.length bad - 1) <- I.set_const true last.I.z;
  let corrupted =
    Program.make ~instrs:bad ~num_cells:p.Program.num_cells ~pi_cells:p.Program.pi_cells
      ~po_cells:p.Program.po_cells
  in
  check_bool "detected" true
    (match Verify.check_symbolic g corrupted with Ok () -> false | Error _ -> true)

(* --- translation cost model (Section III / DAC'16) ------------------------- *)

(* compile a single majority node with the given child polarities and
   fanout structure and return the instruction count *)
let single_node_cost ~complemented_children ~shared_children =
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  let c = Mig.add_input g "c" in
  let pol i s = if i < complemented_children then Mig.not_ s else s in
  let n = Mig.maj g (pol 0 a) (pol 1 b) (pol 2 c) in
  Mig.add_output g "y" n;
  if shared_children then begin
    (* give every child a second consumer so none is releasable *)
    let extra = Mig.maj g (Mig.not_ a) b (Mig.not_ c) in
    let extra2 = Mig.maj g a (Mig.not_ b) Mig.true_ in
    Mig.add_output g "z" extra;
    Mig.add_output g "w" extra2
  end;
  let r = Pipeline.compile Pipeline.naive g in
  (match Verify.check_exhaustive g r.Pipeline.program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "cost-model circuit broken: %s" e);
  r

let count_node_instrs r = Program.length r.Pipeline.program

let test_ideal_node_one_instruction () =
  (* one complemented child, all children single-fanout: 1 instruction *)
  let r = single_node_cost ~complemented_children:1 ~shared_children:false in
  check_int "ideal node" 1 (count_node_instrs r)

let test_zero_complements_cost () =
  (* no complemented child: materialise one complement = +2 *)
  let r = single_node_cost ~complemented_children:0 ~shared_children:false in
  check_int "missing Q complement" 3 (count_node_instrs r)

let test_two_complements_cost () =
  (* two complemented children: one feeds Q, the other needs +2 *)
  let r = single_node_cost ~complemented_children:2 ~shared_children:false in
  check_int "extra complement" 3 (count_node_instrs r)

let test_no_releasable_destination_cost () =
  (* every child multi-fanout: the destination must be copied (+2);
     instruction count grows by exactly 2 over the shared baseline *)
  let shared = single_node_cost ~complemented_children:1 ~shared_children:true in
  let private_ = single_node_cost ~complemented_children:1 ~shared_children:false in
  let extra_nodes_cost =
    (* the two extra nodes of the shared variant, measured alone *)
    count_node_instrs shared - count_node_instrs private_
  in
  check_bool "copy penalty present" true (extra_nodes_cost >= 2)

let test_complemented_po_shared () =
  (* two complemented outputs of one node share a single complement cell *)
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  let b = Mig.add_input g "b" in
  let n = Mig.maj g a (Mig.not_ b) Mig.false_ in
  Mig.add_output g "y1" (Mig.not_ n);
  Mig.add_output g "y2" (Mig.not_ n);
  let r = Pipeline.compile Pipeline.naive g in
  let p = r.Pipeline.program in
  (* 1 instr for the node + 2 for one shared complement *)
  check_int "shared complement" 3 (Program.length p);
  let c1 = snd p.Program.po_cells.(0) and c2 = snd p.Program.po_cells.(1) in
  check_int "same cell" c1 c2;
  match Verify.check_exhaustive g p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

let test_constant_output () =
  let g = Mig.create () in
  let _ = Mig.add_input g "a" in
  Mig.add_output g "t" Mig.true_;
  Mig.add_output g "f" Mig.false_;
  let r = Pipeline.compile Pipeline.naive g in
  check_int "one set_const each" 2 (Program.length r.Pipeline.program);
  match Verify.check_exhaustive g r.Pipeline.program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

let test_passthrough_output () =
  (* PO = PI directly, plus a complemented PI *)
  let g = Mig.create () in
  let a = Mig.add_input g "a" in
  Mig.add_output g "same" a;
  Mig.add_output g "inv" (Mig.not_ a);
  let r = Pipeline.compile Pipeline.naive g in
  check_int "only the inverter costs" 2 (Program.length r.Pipeline.program);
  match Verify.check_exhaustive g r.Pipeline.program with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" e

(* lower bound: every reachable majority node needs at least one
   instruction *)
let instruction_lower_bound =
  QCheck.Test.make ~count:50 ~name:"#I >= reachable majority nodes"
    desc_arb
    (fun d ->
      let g = Gen.to_mig d in
      let r = Pipeline.compile Pipeline.naive g in
      Program.length r.Pipeline.program >= Mig.size g)

(* the minimum write strategy must never be worse than LIFO on average *)
let test_min_write_beats_lifo_on_average () =
  let total_lifo = ref 0.0 and total_min = ref 0.0 in
  for seed = 1 to 10 do
    let g = Mig_gen.random ~seed ~num_inputs:8 ~num_nodes:300 ~num_outputs:6 () in
    let sd config = (Pipeline.compile config g).Pipeline.write_summary.Stats.stdev in
    total_lifo := !total_lifo +. sd Pipeline.dac16;
    total_min := !total_min +. sd Pipeline.min_write
  done;
  check_bool
    (Printf.sprintf "min-write %.2f <= lifo %.2f" !total_min !total_lifo)
    true (!total_min <= !total_lifo)

(* --- allocation: the packed instruction stream ----------------------------- *)

let minor_words_of f =
  let before = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. before)

(* The backend emits each RM3 as one int into a buffer it owns and trims
   once into the program, and the controller decodes the words in its
   loop.  A record per emitted instruction (with boxed operands) read
   17-19 minor words per instruction in compile_rewritten on these
   circuits, the packed stream 10-12, and the flat-slot Lazy_heap that
   also holds Alloc's pool 7-9; the controller allocates well under a
   word per instruction, a decoded instruction per step about 6. *)
let test_backend_allocation () =
  List.iter
    (fun name ->
      let g =
        Recipe.run Pipeline.endurance_full.Pipeline.rewriting
          ~effort:Pipeline.endurance_full.Pipeline.effort (Suite.build_cached (Suite.find name))
      in
      let r, words =
        minor_words_of (fun () -> Pipeline.compile_rewritten Pipeline.endurance_full g)
      in
      let p = r.Pipeline.program in
      let n = float_of_int (Program.length p) in
      if words /. n >= 11.5 then
        Alcotest.failf "%s: compile_rewritten allocates %.1f minor words per instruction (>= 11.5)"
          name (words /. n);
      let inputs = Array.init (Array.length p.Program.pi_cells) (fun i -> i mod 2 = 0) in
      let _, words = minor_words_of (fun () -> Controller.run p ~inputs) in
      if words /. n >= 1. then
        Alcotest.failf "%s: Plim_controller.run allocates %.2f minor words per instruction (>= 1)"
          name (words /. n))
    [ "div8"; "multiplier8"; "sqrt8"; "square8"; "rc_small" ]

let qc = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "core"
    [ ( "alloc",
        [ Alcotest.test_case "lifo" `Quick test_alloc_lifo;
          Alcotest.test_case "fifo" `Quick test_alloc_fifo;
          Alcotest.test_case "min-write" `Quick test_alloc_min_write;
          Alcotest.test_case "cap retire" `Quick test_alloc_cap_retire;
          Alcotest.test_case "can_write/note_write" `Quick test_alloc_can_write;
          Alcotest.test_case "needed param" `Quick test_alloc_needed;
          Alcotest.test_case "cap validation" `Quick test_alloc_cap_validation;
          Alcotest.test_case "lifo hunt preserves order" `Quick
            test_alloc_lifo_needed_preserves_order;
          Alcotest.test_case "fifo hunt requeues at the back" `Quick
            test_alloc_fifo_needed_requeues;
          qc (alloc_matches_model Alloc.Lifo);
          qc (alloc_matches_model Alloc.Fifo);
          qc (alloc_matches_model Alloc.Min_write) ] );
      ( "select",
        [ Alcotest.test_case "in-order is id order" `Quick test_in_order_is_id_order;
          qc (pop_order_is_topological Select.In_order);
          qc (pop_order_is_topological Select.Release_first);
          qc (pop_order_is_topological Select.Level_first) ] );
      ( "pipeline",
        List.map (fun c -> qc (compile_correct c)) all_configs
        @ [ qc cap_respected;
            qc summary_matches_program;
            qc instruction_lower_bound;
            Alcotest.test_case "exhaustive adder, all presets" `Quick test_exhaustive_small;
            Alcotest.test_case "verifier detects corruption" `Quick
              test_verify_detects_corruption;
            Alcotest.test_case "check_random is seed-deterministic" `Quick
              test_check_random_deterministic;
            Alcotest.test_case "check_random witness on a late trial" `Quick
              test_check_random_late_witness;
            Alcotest.test_case "check_random derives write counts once" `Quick
              test_check_random_counts_once;
            Alcotest.test_case "config names" `Quick test_config_names;
            Alcotest.test_case "pi/po maps" `Quick test_pi_po_maps;
            Alcotest.test_case "min-write <= lifo (avg stdev)" `Slow
              test_min_write_beats_lifo_on_average ] );
      ( "symbolic",
        [ qc symbolic_random;
          Alcotest.test_case "32-bit adder, complete proof" `Quick
            (test_symbolic_wide_adder ~width:32
               (Pipeline.with_cap 10 Pipeline.endurance_full));
          Alcotest.test_case "128-bit adder (256 inputs), complete proof" `Slow
            (test_symbolic_wide_adder ~width:128 Pipeline.endurance_full);
          Alcotest.test_case "catches corruption" `Quick test_symbolic_catches_corruption ]
      );
      ( "cost-model",
        [ Alcotest.test_case "ideal node = 1 instruction" `Quick
            test_ideal_node_one_instruction;
          Alcotest.test_case "missing complement = +2" `Quick test_zero_complements_cost;
          Alcotest.test_case "second complement = +2" `Quick test_two_complements_cost;
          Alcotest.test_case "copy destination penalty" `Quick
            test_no_releasable_destination_cost;
          Alcotest.test_case "complemented POs share a cell" `Quick
            test_complemented_po_shared;
          Alcotest.test_case "constant outputs" `Quick test_constant_output;
          Alcotest.test_case "passthrough outputs" `Quick test_passthrough_output ] );
      ( "allocation",
        [ Alcotest.test_case "backend and controller per instruction" `Quick
            test_backend_allocation ] ) ]
