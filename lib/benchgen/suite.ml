module Mig = Plim_mig.Mig
module Mig_gen = Plim_mig.Mig_gen

type family = Arithmetic | Random_control

type spec = {
  name : string;
  family : family;
  pi : int;
  po : int;
  build : unit -> Mig.t;
}

(* Seeds are fixed so every run of the experiments sees the same circuit. *)
let random_control ~seed ~pi ~po ~nodes () =
  Mig_gen.random ~profile:Mig_gen.control_profile ~seed ~num_inputs:pi
    ~num_nodes:nodes ~num_outputs:po ()

(* Benchmarks reach the compiler in AND-inverter structural form, as the
   EPFL suite does (AIGER distribution); MIG rewriting then restructures
   them.  See Frontend. *)
let arithmetic name pi po build =
  { name; family = Arithmetic; pi; po; build = (fun () -> Frontend.expand (build ())) }

let control name pi po ~seed ~nodes =
  { name;
    family = Random_control;
    pi;
    po;
    build = (fun () -> Frontend.expand (random_control ~seed ~pi ~po ~nodes ())) }

let all =
  [ arithmetic "adder" 256 129 (fun () -> Arith.adder ~width:128);
    arithmetic "bar" 135 128 (fun () -> Arith.bar ~width:128);
    arithmetic "div" 128 128 (fun () -> Arith.div ~width:64);
    arithmetic "log2" 32 32 (fun () -> Arith.log2 ());
    arithmetic "max" 512 130 (fun () -> Arith.max ~width:128 ~operands:4);
    arithmetic "multiplier" 128 128 (fun () -> Arith.multiplier ~width:64);
    arithmetic "sin" 24 25 (fun () -> Arith.sin ());
    arithmetic "sqrt" 128 64 (fun () -> Arith.sqrt ~width:64);
    arithmetic "square" 64 128 (fun () -> Arith.square ~width:64);
    control "cavlc" 10 11 ~seed:0xCA51C ~nodes:180;
    control "ctrl" 7 26 ~seed:0xC321 ~nodes:48;
    arithmetic "dec" 8 256 (fun () -> Arith.dec ~bits:8);
    control "i2c" 147 142 ~seed:0x12C ~nodes:310;
    control "int2float" 11 7 ~seed:0x12F ~nodes:60;
    control "mem_ctrl" 1204 1231 ~seed:0x3EC731 ~nodes:10000;
    arithmetic "priority" 128 8 (fun () -> Arith.priority ~width:128);
    control "router" 60 30 ~seed:0x4073 ~nodes:48;
    arithmetic "voter" 1001 1 (fun () -> Arith.voter ~inputs:1001) ]

let cache : (string, Mig.t) Hashtbl.t = Hashtbl.create 32
let cache_lock = Mutex.create ()

(* Domain-safe memoization: lookups and inserts are locked, the build runs
   outside the lock so concurrent misses on *different* specs proceed in
   parallel.  Two domains missing the *same* spec both build it — builds are
   deterministic, so the last insert wins with an identical graph. *)
let build_cached spec =
  Mutex.lock cache_lock;
  let hit = Hashtbl.find_opt cache spec.name in
  Mutex.unlock cache_lock;
  match hit with
  | Some g -> g
  | None ->
    let g = spec.build () in
    Mutex.lock cache_lock;
    (match Hashtbl.find_opt cache spec.name with
    | Some g' ->
      Mutex.unlock cache_lock;
      g'
    | None ->
      Hashtbl.replace cache spec.name g;
      Mutex.unlock cache_lock;
      g)

let small_suite =
  [ arithmetic "adder8" 16 9 (fun () -> Arith.adder ~width:8);
    arithmetic "bar8" 11 8 (fun () -> Arith.bar ~width:8);
    arithmetic "div8" 16 16 (fun () -> Arith.div ~width:8);
    arithmetic "max8" 32 10 (fun () -> Arith.max ~width:8 ~operands:4);
    arithmetic "multiplier8" 16 16 (fun () -> Arith.multiplier ~width:8);
    arithmetic "sqrt8" 16 8 (fun () -> Arith.sqrt ~width:8);
    arithmetic "square8" 8 16 (fun () -> Arith.square ~width:8);
    arithmetic "dec4" 4 16 (fun () -> Arith.dec ~bits:4);
    arithmetic "priority16" 16 5 (fun () -> Arith.priority ~width:16);
    arithmetic "voter15" 15 1 (fun () -> Arith.voter ~inputs:15);
    control "rc_small" 10 8 ~seed:0x51A11 ~nodes:220 ]

let find name = List.find (fun s -> String.equal s.name name) (all @ small_suite)
