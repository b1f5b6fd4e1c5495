module Mig = Plim_mig.Mig
module Pipeline = Plim_core.Pipeline
module Select = Plim_core.Select
module Alloc = Plim_core.Alloc
module Verify = Plim_core.Verify
module Program = Plim_isa.Program
module I = Plim_isa.Instruction
module Fault_model = Plim_fault.Fault_model
module Metrics = Plim_obs.Metrics
module Controller = Plim_machine.Plim_controller
module Geometry = Plim_geometry

type failure = {
  config : string;
  invariant : string;
  message : string;
}

let m_checks = Metrics.counter "check.configs"
let m_failures = Metrics.counter "check.failures"

let pp_failure ppf f =
  Format.fprintf ppf "[%s] %s: %s" f.config f.invariant f.message

let failure_to_string f = Format.asprintf "%a" pp_failure f

let fail config invariant fmt =
  Printf.ksprintf (fun message -> { config; invariant; message }) fmt

let matrix =
  [ Pipeline.naive;
    Pipeline.dac16;
    Pipeline.min_write;
    Pipeline.endurance_rewrite;
    Pipeline.endurance_full;
    Pipeline.with_cap 3 Pipeline.endurance_full;
    Pipeline.with_cap 5 Pipeline.endurance_rewrite;
    Pipeline.with_cap 10 Pipeline.naive;
    { Pipeline.endurance_full with Pipeline.allocation = Alloc.Fifo };
    { Pipeline.endurance_full with Pipeline.dest_min_write = true } ]

let fault_spec = Fault_model.make ~sa0:0.04 ~sa1:0.04 ~seed:0xFA11 ()

(* --- per-configuration invariants ------------------------------------- *)

let exhaustive_limit = 8

let functional_check name g program acc =
  let r =
    if Mig.num_inputs g <= exhaustive_limit then Verify.check_exhaustive g program
    else Verify.check_random ~trials:64 ~seed:0xC0FFEE g program
  in
  match r with
  | Ok () -> acc
  | Error e -> fail name "functional" "%s" e :: acc

let symbolic_check name g program acc =
  if Mig.num_inputs g > 14 then acc
  else
    match Verify.check_symbolic g program with
    | Ok () -> acc
    | Error e -> fail name "symbolic" "%s" e :: acc

let write_count_check name g program acc =
  (* check_random cross-validates static vs crossbar-observed counts *)
  match Verify.check_random ~trials:4 ~seed:0x5EED g program with
  | Ok () -> acc
  | Error e -> fail name "write-counts" "%s" e :: acc

let cap_check name (config : Pipeline.config) program acc =
  match config.Pipeline.max_write with
  | None -> acc
  | Some cap ->
    let counts = Program.static_write_counts program in
    let worst = ref (-1) in
    Array.iteri (fun i w -> if w > cap && !worst < 0 then worst := i) counts;
    if !worst < 0 then acc
    else
      fail name "write-cap" "cell %d takes %d writes, cap is %d" !worst
        counts.(!worst) cap
      :: acc

let lint_check name (config : Pipeline.config) program acc =
  (* Compiler output must be lint-clean: a dead write or RRAM leak in a
     compiled program is an allocator/translator bug, and use-before-def or
     a PO clobber is a miscompilation. *)
  let analysis =
    Plim_analyze.analyze ?max_writes:config.Pipeline.max_write program
  in
  match Plim_analyze.errors analysis with
  | [] -> acc
  | errs ->
    let shown = List.filteri (fun i _ -> i < 3) errs in
    fail name "lint" "%d lint error(s): %s" (List.length errs)
      (String.concat "; " (List.map Plim_analyze.diagnostic_to_string shown))
    :: acc

let rewrite_function_check name g (result : Pipeline.result) acc =
  if Mig.num_inputs g > exhaustive_limit then acc
  else begin
    let expected = Mig.output_tables g in
    let got = Mig.output_tables result.Pipeline.rewritten in
    if Array.length expected <> Array.length got then
      fail name "rewrite-function" "rewriting changed output arity: %d -> %d"
        (Array.length expected) (Array.length got)
      :: acc
    else begin
      let bad = ref None in
      Array.iteri
        (fun i t ->
          if !bad = None && not (Plim_logic.Truth_table.equal t got.(i)) then
            bad := Some i)
        expected;
      match !bad with
      | None -> acc
      | Some i ->
        let oname, _ = (Mig.outputs g).(i) in
        fail name "rewrite-function" "rewriting changed the function of output %S"
          oname
        :: acc
    end
  end

let fault_avoidance_check name spec program acc =
  let faulty i = Fault_model.cell_fault spec i <> None in
  let bad = ref [] in
  let touch what i = if faulty i then bad := Printf.sprintf "%s cell %d" what i :: !bad in
  for k = 0 to Program.length program - 1 do
    let instr = Program.instr program k in
    touch "destination" instr.I.z;
    (match instr.I.a with I.Cell i -> touch "operand" i | I.Const _ -> ());
    match instr.I.b with I.Cell i -> touch "operand" i | I.Const _ -> ()
  done;
  Array.iter (fun (_, c) -> touch "PI" c) program.Program.pi_cells;
  Array.iter (fun (_, c) -> touch "PO" c) program.Program.po_cells;
  match List.sort_uniq compare !bad with
  | [] -> acc
  | bads ->
    fail name "fault-avoidance" "program touches faulty devices: %s"
      (String.concat ", " bads)
    :: acc

let output_map_check name g program acc =
  let expected = Array.map fst (Mig.outputs g) in
  let got = Array.map fst program.Program.po_cells in
  if expected = got then acc
  else
    fail name "output-map" "PO names differ: mig [%s], program [%s]"
      (String.concat ";" (Array.to_list expected))
      (String.concat ";" (Array.to_list got))
    :: acc

let geometry_grids program =
  (* One serial grid (cols = 1, must degenerate to one group per
     instruction), one narrow grid and one near-square grid: enough to
     exercise forced-singleton cross-row scheduling and wide rows. *)
  let n = Program.num_cells program in
  let rec square c = if c * c >= n then c else square (c + 1) in
  List.sort_uniq compare [ 1; 4; square 1 ]
  |> List.map (fun cols -> Geometry.grid_for ~cols ~num_cells:n)

let geometry_check name program acc =
  (* The geometry backend is a second compilation target for the same
     instruction stream: its row-parallel schedule must be a valid
     hazard-respecting permutation cover, never slower than serial, and
     functionally indistinguishable from the flat controller. *)
  let n_instr = Program.length program in
  let check_grid acc grid =
    let gname = Geometry.to_string grid in
    match Geometry.schedule grid program with
    | Error e -> fail name "geometry" "[%s] schedule: %s" gname e :: acc
    | Ok sched ->
      let acc =
        match Geometry.validate program sched with
        | Ok () -> acc
        | Error e ->
          fail name "geometry" "[%s] invalid schedule: %s" gname e :: acc
      in
      (* independent happens-before cross-check: the certify race
         detector derives hazard edges from the def-use chains, a
         different code path from validate's flat-stream scan — the
         scheduler must satisfy both *)
      let acc =
        match Plim_certify.Race.check_schedule program sched with
        | Ok () -> acc
        | Error e ->
          fail name "geometry" "[%s] race detector rejects scheduler output: %s"
            gname e
          :: acc
      in
      let groups = Geometry.num_groups sched in
      let acc =
        if groups > n_instr then
          fail name "geometry" "[%s] %d groups exceed %d instructions" gname
            groups n_instr
          :: acc
        else acc
      in
      let acc =
        if grid.Geometry.cols = 1 && groups <> n_instr then
          fail name "geometry"
            "[%s] single-column grid must run serially: %d groups for %d \
             instructions"
            gname groups n_instr
          :: acc
        else acc
      in
      let rng = Plim_util.Splitmix.create 0x9E0 in
      let pis = program.Program.pi_cells in
      let rec trials k acc =
        if k = 0 then acc
        else
          let inputs =
            Program.inputs_of_vector pis
              (Plim_util.Splitmix.bits rng ~width:(Array.length pis))
          in
          let flat, _, fstats = Controller.run program ~inputs in
          match Controller.run_grouped ~geometry:grid program ~inputs with
          | Error e ->
            fail name "geometry" "[%s] run_grouped: %s" gname e :: acc
          | Ok (grouped, _, gstats) ->
            let acc =
              if flat <> grouped then
                fail name "geometry"
                  "[%s] grouped execution diverges from the flat controller"
                  gname
                :: acc
              else acc
            in
            let acc =
              if gstats.Controller.cycles <> fstats.Controller.cycles then
                fail name "geometry"
                  "[%s] cycle accounting diverges: grouped %d, flat %d" gname
                  gstats.Controller.cycles fstats.Controller.cycles
                :: acc
              else acc
            in
            trials (k - 1) acc
      in
      trials 4 acc
  in
  List.fold_left check_grid acc (geometry_grids program)

let check_config ?fault_spec config g =
  Metrics.incr m_checks;
  let name =
    Pipeline.config_name config ^ match fault_spec with Some _ -> "+fault-aware" | None -> ""
  in
  let is_faulty =
    Option.map (fun spec i -> Fault_model.cell_fault spec i <> None) fault_spec
  in
  match Pipeline.compile ?is_faulty config g with
  | exception e -> [ fail name "compile" "exception: %s" (Printexc.to_string e) ]
  | result ->
    let program = result.Pipeline.program in
    let acc = [] in
    let acc = functional_check name g program acc in
    let acc = symbolic_check name g program acc in
    let acc = write_count_check name g program acc in
    let acc = cap_check name config program acc in
    let acc = lint_check name config program acc in
    let acc = rewrite_function_check name g result acc in
    let acc = output_map_check name g program acc in
    let acc = geometry_check name program acc in
    let acc =
      match fault_spec with
      | Some spec -> fault_avoidance_check name spec program acc
      | None -> acc
    in
    List.rev acc

(* --- differential node selection --------------------------------------- *)

(* Both drivers emulate the translator's bookkeeping identically (pending
   decrements per consumed child, on_pending_one notification), so any
   divergence is a Select/Lazy_heap bug, not a modelling artefact. *)

let heap_order policy g =
  let n = Mig.num_nodes g in
  let fanout = Mig.fanout_counts g in
  let out_refs = Mig.output_refs g in
  let pending = Array.init n (fun i -> fanout.(i) + out_refs.(i)) in
  let sel = Select.create ~policy g ~pending in
  let order = ref [] in
  let rec loop () =
    match Select.pop sel with
    | None -> ()
    | Some id ->
      order := id :: !order;
      (match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        List.iter
          (fun s ->
            let m = Mig.node_of s in
            if m <> 0 then begin
              pending.(m) <- pending.(m) - 1;
              if pending.(m) = 1 then Select.child_pending_dropped_to_one sel m
            end)
          [ a; b; c ]
      | Mig.Const | Mig.Input _ -> ());
      Select.computed sel id;
      loop ()
  in
  loop ();
  List.rev !order

let reference_order policy g =
  let n = Mig.num_nodes g in
  let levels = Mig.levels g in
  let out_refs = Mig.output_refs g in
  let fanout = Mig.fanout_counts g in
  let fanouts = Mig.fanouts g in
  let pending = Array.init n (fun i -> fanout.(i) + out_refs.(i)) in
  let fanout_level = Array.make n 0 in
  for id = 0 to n - 1 do
    let from_parents =
      Array.fold_left (fun acc p -> min acc levels.(p)) max_int fanouts.(id)
    in
    let from_outputs = if out_refs.(id) > 0 then levels.(id) + 1 else max_int in
    let fl = min from_parents from_outputs in
    fanout_level.(id) <- (if fl = max_int then levels.(id) + 1 else fl)
  done;
  let computed = Array.make n false in
  let candidate = Array.make n false in
  let children id =
    match Mig.kind g id with Mig.Maj (a, b, c) -> [ a; b; c ] | _ -> []
  in
  let releasing id =
    List.fold_left
      (fun acc s ->
        let m = Mig.node_of s in
        if m <> 0 && pending.(m) = 1 then acc + 1 else acc)
      0 (children id)
  in
  let key id =
    match policy with
    | Select.In_order -> (id, 0, 0)
    | Select.Release_first -> (-releasing id, fanout_level.(id), id)
    | Select.Level_first -> (fanout_level.(id), -releasing id, id)
  in
  let children_left = Array.make n 0 in
  Mig.iter_reachable_maj g (fun id ->
      let left =
        List.fold_left
          (fun acc s ->
            match Mig.kind g (Mig.node_of s) with
            | Mig.Maj _ -> acc + 1
            | Mig.Const | Mig.Input _ -> acc)
          0 (children id)
      in
      children_left.(id) <- left;
      if left = 0 then candidate.(id) <- true);
  let order = ref [] in
  let rec loop () =
    let best = ref None in
    for id = 0 to n - 1 do
      if candidate.(id) then
        let k = key id in
        match !best with
        | Some (bk, _) when compare bk k <= 0 -> ()
        | _ -> best := Some (k, id)
    done;
    match !best with
    | None -> ()
    | Some (_, id) ->
      candidate.(id) <- false;
      computed.(id) <- true;
      order := id :: !order;
      List.iter
        (fun s ->
          let m = Mig.node_of s in
          if m <> 0 then pending.(m) <- pending.(m) - 1)
        (children id);
      Array.iter
        (fun parent ->
          if not computed.(parent) then begin
            children_left.(parent) <- children_left.(parent) - 1;
            if children_left.(parent) = 0 then candidate.(parent) <- true
          end)
        fanouts.(id);
      loop ()
  in
  loop ();
  List.rev !order

let pp_order order =
  String.concat "," (List.map string_of_int order)

let first_divergence xs ys =
  let rec go i xs ys =
    match (xs, ys) with
    | [], [] -> None
    | x :: xs', y :: ys' -> if x = y then go (i + 1) xs' ys' else Some i
    | _, [] | [], _ -> Some i
  in
  go 0 xs ys

let selection_failures g =
  List.filter_map
    (fun policy ->
      let name = "selection:" ^ Select.policy_name policy in
      let real = heap_order policy g in
      let want = reference_order policy g in
      if List.length real <> Mig.size g then
        Some
          (fail name "selection-differential"
             "heap selector scheduled %d of %d reachable majority nodes"
             (List.length real) (Mig.size g))
      else
        match first_divergence real want with
        | None -> None
        | Some i ->
          Some
            (fail name "selection-differential"
               "orders diverge at pop %d: heap [%s], reference [%s]" i
               (pp_order real) (pp_order want)))
    [ Select.In_order; Select.Release_first; Select.Level_first ]

(* --- entry point -------------------------------------------------------- *)

let run g =
  let per_config = List.concat_map (fun config -> check_config config g) matrix in
  let fault =
    List.concat_map
      (fun config -> check_config ~fault_spec config g)
      [ Pipeline.naive; Pipeline.endurance_full ]
  in
  let failures = per_config @ fault @ selection_failures g in
  Metrics.incr ~by:(List.length failures) m_failures;
  failures
