module Mig = Plim_mig.Mig
module Program = Plim_isa.Program
module Controller = Plim_machine.Plim_controller
module Crossbar = Plim_rram.Crossbar
module Splitmix = Plim_util.Splitmix
module Profile = Plim_obs.Profile

let run_and_compare mig (program : Program.t) vector =
  let expected = Mig.eval mig vector in
  let outputs, xbar, _ = Controller.run program ~inputs:vector in
  let actual = Array.of_list (List.map snd outputs) in
  if Array.length expected <> Array.length actual then
    Error
      (Printf.sprintf "output arity mismatch: mig %d vs program %d"
         (Array.length expected) (Array.length actual))
  else begin
    let mismatch = ref None in
    Array.iteri
      (fun i e ->
        if !mismatch = None && e <> actual.(i) then mismatch := Some i)
      expected;
    match !mismatch with
    | Some i ->
      let name, _ = program.Program.po_cells.(i) in
      Error
        (Printf.sprintf "output %S differs: expected %b, machine computed %b" name
           expected.(i) actual.(i))
    | None -> Ok xbar
  end

(* Three-way agreement: the trivial per-instruction count, the bound the
   dataflow analyzer derives from its def-use chains, and what the crossbar
   actually counted.  Each pair failing points at a different layer (ISA
   accounting, analyzer IR, machine).  The first two depend only on the
   program, so a check derives them once, on its first run, and compares
   every run's crossbar against the same arrays. *)
let static_counts (program : Program.t) =
  lazy
    (Profile.span "verify.static_counts" (fun () ->
         (Program.static_write_counts program, Plim_analyze.write_counts program)))

let check_write_counts counts (xbar : Crossbar.t) =
  let static, analyzed = Lazy.force counts in
  let dynamic = Crossbar.write_counts xbar in
  if
    Array.length static <> Array.length dynamic
    || Array.length static <> Array.length analyzed
  then Error "write-count arrays differ in length"
  else begin
    let rec first_bad i =
      if i >= Array.length static then Ok ()
      else if static.(i) <> dynamic.(i) || static.(i) <> analyzed.(i) then
        Error
          (Printf.sprintf "cell %d: static writes %d, analyzer bound %d, dynamic writes %d"
             i static.(i) analyzed.(i) dynamic.(i))
      else first_bad (i + 1)
    in
    first_bad 0
  end

(* one vector: machine outputs against the MIG, then the write counts *)
let check_run mig program counts vector =
  match run_and_compare mig program vector with
  | Error e -> Error e
  | Ok xbar -> check_write_counts counts xbar

let vector_to_string vector =
  String.init (Array.length vector) (fun i -> if vector.(i) then '1' else '0')

(* Determinism contract: the vector stream is a pure function of [seed]
   (one splitmix64 stream, no global [Random] state anywhere below this
   point), and every failure message embeds the seed and the failing
   vector — same seed, byte-identical message. *)
let check_random ?(trials = 32) ?(seed = 0x5eed) mig program =
  let rng = Splitmix.create seed in
  let n = Mig.num_inputs mig in
  let counts = static_counts program in
  let rec go t =
    if t >= trials then Ok ()
    else begin
      let vector = Splitmix.bits rng ~width:n in
      let witness e =
        Printf.sprintf "seed 0x%X trial %d vector %s: %s" seed t
          (vector_to_string vector) e
      in
      match check_run mig program counts vector with
      | Error e -> Error (witness e)
      | Ok () -> go (t + 1)
    end
  in
  go 0

let check_symbolic ?order mig (program : Program.t) =
  let module Bdd = Plim_logic.Bdd in
  let module Mig_bdd = Plim_mig.Mig_bdd in
  let module I = Plim_isa.Instruction in
  let man, expected = Mig_bdd.output_bdds ?order mig in
  (* symbolic machine state: one BDD per cell, initially 0 (HRS) *)
  let cells = Array.make program.Program.num_cells (Bdd.false_ man) in
  Array.iteri
    (fun pi (_, cell) -> cells.(cell) <- Bdd.var man pi)
    program.Program.pi_cells;
  let operand = function
    | I.Const false -> Bdd.false_ man
    | I.Const true -> Bdd.true_ man
    | I.Cell i -> cells.(i)
  in
  for i = 0 to Program.length program - 1 do
    let instr = Program.instr program i in
    let a = operand instr.I.a in
    let b = operand instr.I.b in
    let z = instr.I.z in
    cells.(z) <- Bdd.maj man a (Bdd.not_ man b) cells.(z)
  done;
  let mismatch = ref None in
  Array.iteri
    (fun i (name, cell) ->
      if !mismatch = None && not (Bdd.equal cells.(cell) expected.(i)) then
        mismatch := Some name)
    program.Program.po_cells;
  match !mismatch with
  | Some name -> Error (Printf.sprintf "output %S differs symbolically" name)
  | None -> Ok ()

let check_exhaustive mig program =
  let n = Mig.num_inputs mig in
  if n > 20 then invalid_arg "Verify.check_exhaustive: too many inputs";
  let counts = static_counts program in
  let rec go m =
    if m >= 1 lsl n then Ok ()
    else begin
      let vector = Array.init n (fun i -> (m lsr i) land 1 = 1) in
      match check_run mig program counts vector with
      | Error e -> Error (Printf.sprintf "minterm %d: %s" m e)
      | Ok () -> go (m + 1)
    end
  in
  go 0
