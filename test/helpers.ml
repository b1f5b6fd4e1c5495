(* Shared fixtures for the test suite.

   Everything here is deterministic: fixed seeds, fixed suite prefixes,
   fixed configs.  Modules not listed in the [names] field of test/dune
   are linked into every test executable, so these fixtures are available
   as [Helpers.*] without any stanza changes. *)

module I = Plim_isa.Instruction
module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Controller = Plim_machine.Plim_controller
module Workload = Plim_serve.Workload
module Server = Plim_serve.Server
module Suite = Plim_benchgen.Suite

(* substring check for JSON-shape assertions *)
let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* a JSON document the test expects to be well formed *)
let parse_ok s =
  match Plim_telemetry.Json.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "Json.parse: %s" e

(* --- tiny hand-written programs ---------------------------------------- *)

(* NOT gate: z := 1; RM3(0, a, z) -> <0, !a, 1> = !a *)
let not_program () =
  Program.make
    ~instrs:[| I.set_const true 1; I.rm3 ~a:(I.Const false) ~b:(I.Cell 0) ~z:1 |]
    ~num_cells:2 ~pi_cells:[| ("a", 0) |] ~po_cells:[| ("y", 1) |]

(* COPY: z := 0; RM3(a, 0, z) -> <a, 1, 0> = a *)
let copy_program () =
  Program.make
    ~instrs:[| I.set_const false 1; I.rm3 ~a:(I.Cell 0) ~b:(I.Const false) ~z:1 |]
    ~num_cells:2 ~pi_cells:[| ("a", 0) |] ~po_cells:[| ("y", 1) |]

(* MAJ3 in place: cells a b z; RM3 needs !b available, so feed b
   complemented via a NOT into a temp first: full majority test *)
let maj_program () =
  Program.make
    ~instrs:
      [| I.set_const true 3;
         I.rm3 ~a:(I.Const false) ~b:(I.Cell 1) ~z:3; (* t := !b *)
         I.rm3 ~a:(I.Cell 0) ~b:(I.Cell 3) ~z:2 (* z <- <a, b, z> *) |]
    ~num_cells:4
    ~pi_cells:[| ("a", 0); ("b", 1); ("c", 2) |]
    ~po_cells:[| ("y", 2) |]

(* --- compiled 4-bit adder with a reference run -------------------------- *)

(* (program, inputs, reference outputs): one endurance_full compile shared
   by every test that needs a realistic program with a known-good answer *)
let adder4 =
  lazy
    (let g = Plim_benchgen.Arith.adder ~width:4 in
     let p = (Pipeline.compile Pipeline.endurance_full g).Pipeline.program in
     let inputs = Array.init (Array.length p.Program.pi_cells) (fun i -> i mod 3 <> 1) in
     let reference, _, _ = Controller.run p ~inputs in
     (p, inputs, reference))

let adder4_program () =
  let p, _, _ = Lazy.force adder4 in
  p

(* --- allocation ---------------------------------------------------------- *)

(* [f ()] and the words it allocates, minor plus direct major.  [Gc.minor]
   before each snapshot counts what is still in the minor heap.  OCaml
   5.1's [major_words] can also take in words allocated before the first
   snapshot at a later major slice, one that may fall inside the measured
   call (a recipe then reads 200-300 words per node, not 26-30); a full
   major collection before the first snapshot settles them, and the count
   repeats exactly. *)
let words_of count f =
  let words () =
    Gc.minor ();
    count (Gc.quick_stat ())
  in
  Gc.full_major ();
  let before = words () in
  let r = f () in
  (r, words () -. before)

let total_words_of f =
  words_of (fun s -> s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words) f

(* The direct-major part alone: what a major collection pays for, and
   what sets the heap top. *)
let direct_major_words_of f = words_of (fun s -> s.Gc.major_words -. s.Gc.promoted_words) f

(* [Mig.cleanup g] as the hash-consing rebuild builds it, with its map: a
   [rebuild_into] [create ()] with plain [maj] as its rule.  Unlike
   [cleanup]'s result it keeps a strash, so [Mig.lookup] can ask it. *)
let hashed_cleanup g =
  let into = Plim_mig.Mig.create () in
  let map = Array.make (Plim_mig.Mig.num_nodes g) Plim_mig.Mig.false_ in
  Plim_mig.Mig.rebuild_into ~map g ~into ~rule:(fun g' ~old_id:_ a b c ->
      Plim_mig.Mig.maj g' a b c);
  (into, map)

(* --- serve-layer fixtures ----------------------------------------------- *)

(* a small, fast program mix: the first four small-suite circuits *)
let specs4 = List.filteri (fun i _ -> i < 4) Suite.small_suite
let mix4 = Workload.mix_of_suite specs4

(* a small fleet with one spare, faults off, check on *)
let quiet_config =
  { Server.default_config with Server.shards = 3; spare_shards = 1; seed = 5 }

(* serve a stream on a fresh server, optionally on a [jobs]-wide pool *)
let run_server ?jobs cfg stream =
  let server = Server.create cfg in
  let responses =
    match jobs with
    | None -> Server.run server stream
    | Some jobs ->
      Plim_par.with_pool ~jobs (fun pool -> Server.run ~pool server stream)
  in
  (server, responses)
