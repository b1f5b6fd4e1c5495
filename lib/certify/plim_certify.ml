(* Static endurance certifier: see the .mli for the abstraction and the
   soundness arguments each bound leans on.  Everything here must stay a
   pure function of the config — certificates ride the -j1 == -jN
   byte-identity gate next to the simulator rows they bracket. *)

module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Fault_model = Plim_fault.Fault_model
module Remap = Plim_fault.Remap
module Leveling = Plim_rram.Leveling
module Workload = Plim_serve.Workload
module Server = Plim_serve.Server
module Horizon = Plim_serve.Horizon
module Json = Plim_telemetry.Json

(* --- race detection ----------------------------------------------------- *)

module Race = struct
  type hazard = Raw | Waw | War

  let hazard_name = function Raw -> "RAW" | Waw -> "WAW" | War -> "WAR"

  type edge = {
    e_before : int;
    e_after : int;
    e_cell : int;
    e_hazard : hazard;
  }

  (* Happens-before edges from the def-use chains, cell by cell and
     along each cell's chain in def order: [f before after cell hazard]
     for each.  A PI load ([def_at = -1]) orders nothing (it happens
     before instruction 0 by construction); a placeholder def (installed
     after a use-before-def read) is skipped, and since it is always the
     first def of its cell's chain no other def loses a neighbour. *)
  let iter_edges (ch : Plim_analyze.chains) f =
    let { Plim_analyze.chain_start; chain; def_instr; def_placeholder; use_start;
          use_instr; _ } =
      ch
    in
    for cell = 0 to Array.length chain_start - 2 do
      let stop = chain_start.(cell + 1) in
      for k = chain_start.(cell) to stop - 1 do
        let d = chain.(k) in
        if Bytes.get def_placeholder d = '\000' then begin
          let def_at = def_instr.(d) in
          if def_at >= 0 then
            for e = use_start.(d) to use_start.(d + 1) - 1 do
              if use_instr.(e) <> def_at then f def_at use_instr.(e) cell Raw
            done;
          if k + 1 < stop then begin
            let next = def_instr.(chain.(k + 1)) in
            if def_at >= 0 then f def_at next cell Waw;
            for e = use_start.(d) to use_start.(d + 1) - 1 do
              (* a use by the overwriting instruction itself is the
                 read-modify-write of RM3, not an ordering edge *)
              if use_instr.(e) <> next then f use_instr.(e) next cell War
            done
          end
        end
      done
    done

  let edges p =
    let acc = ref [] in
    iter_edges (Plim_analyze.chains p) (fun e_before e_after e_cell e_hazard ->
        acc := { e_before; e_after; e_cell; e_hazard } :: !acc);
    List.rev !acc

  let check_groups p groups =
    let ch = Plim_analyze.chains p in
    if ch.Plim_analyze.has_use_before_def then
      Error "program has use-before-def reads; its ordering is not certifiable"
    else begin
      let n = Program.length p in
      let group_of = Array.make n (-1) in
      let bad = ref None in
      Array.iteri
        (fun gi members ->
          Array.iter
            (fun i ->
              if !bad = None then
                if i < 0 || i >= n then
                  bad := Some (Printf.sprintf "instruction index %d out of range" i)
                else if group_of.(i) >= 0 then
                  bad := Some (Printf.sprintf "instruction %d scheduled twice" i)
                else group_of.(i) <- gi)
            members)
        groups;
      (match !bad with
      | Some _ -> ()
      | None ->
        Array.iteri
          (fun i gi ->
            if !bad = None && gi < 0 then
              bad := Some (Printf.sprintf "instruction %d never scheduled" i))
          group_of);
      match !bad with
      | Some msg -> Error ("coverage: " ^ msg)
      | None ->
        (* the first edge whose groups do not increase is the race *)
        let exception Violated of edge in
        let race =
          match
            iter_edges ch (fun e_before e_after e_cell e_hazard ->
                if group_of.(e_before) >= group_of.(e_after) then
                  raise (Violated { e_before; e_after; e_cell; e_hazard }))
          with
          | () -> None
          | exception Violated e -> Some e
        in
        (match race with
        | None -> Ok ()
        | Some e ->
          Error
            (Printf.sprintf
               "race: %s hazard on cell %d — instruction %d (group %d) must \
                precede instruction %d (group %d)"
               (hazard_name e.e_hazard) e.e_cell e.e_before
               group_of.(e.e_before) e.e_after group_of.(e.e_after)))
    end

  let check_schedule p (s : Plim_geometry.schedule) =
    check_groups p s.Plim_geometry.s_groups
end

(* --- wear-bound certificates -------------------------------------------- *)

type bound = { lower : float; upper : float }

type program_profile = {
  p_label : string;
  p_instructions : int;
  p_cells : int;
  p_wmax : int;
  p_mass : float;
  p_fits : bool;
}

type t = {
  c_strategy : Horizon.strategy;
  c_fault_rate : float;
  c_endurance : float;
  c_epoch_requests : int;
  c_compile_ratio : float;
  c_zipf : float;
  c_shards : int;
  c_spare_shards : int;
  c_lines : int;
  c_meas : int;
  c_cells : int;
  c_physical : int;
  c_alive0 : int;
  c_capacity0 : float;
  c_overhead : float;
  c_writes : bound;
  c_rate_cell_upper : float;
  c_ttff : bound;
  c_half_life : bound;
  c_deaths_to_half : int;
  c_line_deaths_lower : int;
  c_expected_ttff : float;
  c_programs : program_profile list;
}

(* One model shard after its power-on scrub (Horizon.power_on): whether
   it survives, and the minimum number of wear-out line deaths that can
   drain its remaining spare pool — Remap hands out spares in ascending
   physical order, so the consumed set is exact, not an estimate. *)
type shard0 = {
  s0_alive : bool;
  s0_min_wear_deaths : int;  (* to kill the shard, given wear retirement *)
}

let shard0 cfg ~cells id =
  let po = Horizon.power_on cfg ~id ~cells in
  let np = Array.length po.Horizon.dead in
  let spares_left = Remap.spares_left po.Horizon.remap in
  (* unconsumed spares occupy the top [spares_left] physical addresses *)
  let dead_spares = ref 0 in
  for p = np - spares_left to np - 1 do
    if po.Horizon.dead.(p) then incr dead_spares
  done;
  (* each completed wear death consumes exactly one healthy spare (its
     retire chain may also burn dead spares); the death that finds the
     pool dry kills the shard *)
  { s0_alive = po.Horizon.alive;
    s0_min_wear_deaths = max 1 (spares_left - !dead_spares + 1) }

let profile_mix pipeline ~lines (mix : Workload.mix) =
  let n = List.length mix.Workload.programs in
  let mass = Workload.zipf_mass mix.Workload.zipf n in
  List.mapi
    (fun i (wp : Workload.program) ->
      let result = Pipeline.compile pipeline wp.Workload.graph in
      let p = result.Pipeline.program in
      let wc = Plim_analyze.write_counts p in
      let cells = Program.num_cells p in
      { p_label = wp.Workload.label;
        p_instructions = Program.length p;
        p_cells = cells;
        p_wmax = Array.fold_left max 0 wc;
        p_mass = mass.(i);
        p_fits = cells <= lines })
    mix.Workload.programs

let certify (cfg : Horizon.config) =
  if cfg.Horizon.endurance <= 0.0 then
    invalid_arg "Plim_certify.certify: endurance must be positive";
  if cfg.Horizon.epoch_requests <= 0 then
    invalid_arg "Plim_certify.certify: epoch_requests must be positive";
  if cfg.Horizon.mix.Workload.programs = [] then
    invalid_arg "Plim_certify.certify: empty mix";
  Leveling.validate ~psi:cfg.Horizon.psi ~period:cfg.Horizon.wolfram_period;
  Server.validate_config cfg.Horizon.server;
  let server = cfg.Horizon.server in
  let strategy = cfg.Horizon.strategy in
  let endurance = cfg.Horizon.endurance in
  let requests = float_of_int cfg.Horizon.epoch_requests in
  (* shard sizing: the fleet's lines for the compiled mix; measured
     cells include the within-shard spare region *)
  let probe = profile_mix server.Server.pipeline ~lines:max_int cfg.Horizon.mix in
  let lines = Server.shard_lines server ~cells:(List.map (fun p -> p.p_cells) probe) in
  let programs = List.map (fun p -> { p with p_fits = p.p_cells <= lines }) probe in
  let meas = lines + server.Server.cell_spares in
  let cells = Leveling.lines strategy meas in
  let physical = cells + cfg.Horizon.model_spares in
  let total_shards = server.Server.shards + server.Server.spare_shards in
  let shard0s = List.init total_shards (shard0 cfg ~cells) in
  let alive0 = List.length (List.filter (fun s -> s.s0_alive) shard0s) in
  let capacity0 = float_of_int alive0 /. float_of_int total_shards in
  (* fleet writes per epoch: executes wear exactly their static footprint
     (compiles wear nothing), at most [requests] of them per epoch *)
  let fitting = List.filter (fun p -> p.p_fits) programs in
  let len_max = List.fold_left (fun acc p -> max acc p.p_instructions) 0 fitting in
  let len_min =
    match fitting with
    | [] -> 0
    | _ -> List.fold_left (fun acc p -> min acc p.p_instructions) max_int fitting
  in
  let all_fit = List.for_all (fun p -> p.p_fits) programs in
  let writes_upper = requests *. float_of_int len_max in
  let writes_lower =
    (* 0 whenever some sampled epoch can legally wear nothing: redundant
       compiles, or a program whose executes the shards reject *)
    if cfg.Horizon.mix.Workload.compile_ratio > 0.0 || not all_fit then 0.0
    else requests *. float_of_int len_min
  in
  (* leveling transform of the strategy, exactly as Horizon.set_rates *)
  let overhead =
    Leveling.overhead strategy ~psi:cfg.Horizon.psi
      ~period:cfg.Horizon.wolfram_period ~lines:meas
  in
  (* per-cell rate upper bound: unmanaged wear concentrates an epoch's
     executes on one shard's hottest cell *)
  let wmax = List.fold_left (fun acc p -> max acc p.p_wmax) 0 fitting in
  let rate_cell_upper =
    Leveling.cell_rate_bound strategy ~overhead ~cells ~total:writes_upper
      ~hottest:(requests *. float_of_int wmax)
  in
  let ttff_lower =
    if rate_cell_upper <= 0.0 then infinity else endurance /. rate_cell_upper
  in
  (* pigeonhole upper: alive shards hold [alive0 * cells] mapped lines,
     each absorbing < endurance before the first death, while fleet wear
     accrues at >= writes_lower * (1 + overhead) per epoch *)
  let wear_rate_lower = writes_lower *. (1.0 +. overhead) in
  let ttff_upper =
    if wear_rate_lower <= 0.0 || alive0 = 0 then infinity
    else
      float_of_int alive0 *. float_of_int cells *. endurance /. wear_rate_lower
  in
  (* capacity half-life: shard deaths needed to reach <= 1/2, and the
     minimum line deaths that can cause them.  Without wear-time
     retirement a single wear death kills the whole shard; otherwise it
     must drain the shard's healthy spares first. *)
  let deaths_to_half = alive0 - (total_shards / 2) in
  let wear_deaths_to_kill s0 =
    if Leveling.retires_worn_lines strategy then s0.s0_min_wear_deaths else 1
  in
  let line_deaths_lower =
    if deaths_to_half <= 0 then 0
    else
      let costs =
        List.filter (fun s -> s.s0_alive) shard0s
        |> List.map wear_deaths_to_kill
        |> List.sort compare
      in
      List.filteri (fun i _ -> i < deaths_to_half) costs
      |> List.fold_left ( + ) 0
  in
  let wear_rate_upper = writes_upper *. (1.0 +. overhead) in
  let half_life_lower =
    if capacity0 <= 0.5 then 0.0
    else if wear_rate_upper <= 0.0 then infinity
    else
      Float.max ttff_lower
        (float_of_int line_deaths_lower *. endurance /. wear_rate_upper)
  in
  let half_life_upper =
    if capacity0 <= 0.5 then 0.0
    else if wear_rate_lower <= 0.0 then infinity
    else
      float_of_int total_shards *. float_of_int physical *. endurance
      /. wear_rate_lower
  in
  (* informational point estimate: expected fleet writes under the Zipf
     mass, balanced over the surviving shards — never gated *)
  let exec_share = 1.0 -. cfg.Horizon.mix.Workload.compile_ratio in
  let expected_ttff =
    if alive0 = 0 then infinity
    else begin
      let k0 = float_of_int alive0 in
      let mass_weighted f =
        List.fold_left
          (fun acc p -> if p.p_fits then acc +. (p.p_mass *. float_of_int (f p)) else acc)
          0.0 programs
      in
      let per_shard f = requests *. exec_share *. mass_weighted f /. k0 in
      let exp_rate =
        Leveling.cell_rate_bound strategy ~overhead ~cells
          ~total:(per_shard (fun p -> p.p_instructions))
          ~hottest:(per_shard (fun p -> p.p_wmax))
      in
      if exp_rate <= 0.0 then infinity else endurance /. exp_rate
    end
  in
  { c_strategy = strategy;
    c_fault_rate =
      cfg.Horizon.fault_spec.Fault_model.sa0
      +. cfg.Horizon.fault_spec.Fault_model.sa1;
    c_endurance = endurance;
    c_epoch_requests = cfg.Horizon.epoch_requests;
    c_compile_ratio = cfg.Horizon.mix.Workload.compile_ratio;
    c_zipf = cfg.Horizon.mix.Workload.zipf;
    c_shards = server.Server.shards;
    c_spare_shards = server.Server.spare_shards;
    c_lines = lines;
    c_meas = meas;
    c_cells = cells;
    c_physical = physical;
    c_alive0 = alive0;
    c_capacity0 = capacity0;
    c_overhead = overhead;
    c_writes = { lower = writes_lower; upper = writes_upper };
    c_rate_cell_upper = rate_cell_upper;
    c_ttff = { lower = ttff_lower; upper = ttff_upper };
    c_half_life = { lower = half_life_lower; upper = half_life_upper };
    c_deaths_to_half = max 0 deaths_to_half;
    c_line_deaths_lower = line_deaths_lower;
    c_expected_ttff = expected_ttff;
    c_programs = programs }

let grid cfg ~strategies ~fault_rates =
  List.map
    (fun (strategy, rate, c) -> (strategy, rate, certify c))
    (Horizon.cells cfg ~strategies ~fault_rates)

(* --- reporting ---------------------------------------------------------- *)

let label c = Horizon.cell_label c.c_strategy c.c_fault_rate

let row_json ?label:lbl c =
  let lbl = match lbl with Some l -> l | None -> label c in
  (* no nulls or infinities: the horizon's -1 sentinel encodes "unbounded" *)
  let bound v = Json.Num (Horizon.sentinel_epochs (Some v)) in
  let program p =
    Json.Obj
      [ ("label", Str p.p_label); ("instructions", Int p.p_instructions);
        ("cells", Int p.p_cells); ("wmax", Int p.p_wmax); ("mass", Num p.p_mass);
        ("fits", Bool p.p_fits) ]
  in
  Json.Obj
    [ ("schema", Str "plim-cert/v1"); ("label", Str lbl);
      ("strategy", Str (Horizon.strategy_name c.c_strategy));
      ("fault_rate", Num c.c_fault_rate); ("endurance", Num c.c_endurance);
      ("epoch_requests", Int c.c_epoch_requests);
      ("compile_ratio", Num c.c_compile_ratio);
      ("zipf", Num c.c_zipf); ("shards", Int c.c_shards);
      ("spare_shards", Int c.c_spare_shards); ("lines", Int c.c_lines);
      ("meas", Int c.c_meas); ("cells", Int c.c_cells); ("physical", Int c.c_physical);
      ("alive0", Int c.c_alive0); ("capacity0", Num c.c_capacity0);
      ("overhead", Num c.c_overhead); ("writes_lower", Num c.c_writes.lower);
      ("writes_upper", Num c.c_writes.upper);
      ("rate_cell_upper", Num c.c_rate_cell_upper);
      ("ttff_lower", bound c.c_ttff.lower); ("ttff_upper", bound c.c_ttff.upper);
      ("half_life_lower", bound c.c_half_life.lower);
      ("half_life_upper", bound c.c_half_life.upper);
      ("deaths_to_half", Int c.c_deaths_to_half);
      ("line_deaths_lower", Int c.c_line_deaths_lower);
      ("expected_ttff", bound c.c_expected_ttff);
      ("programs", Arr (List.map program c.c_programs)) ]

(* --- the bracket checker ------------------------------------------------ *)

(* relative slack absorbing the simulator's death-event epsilon
   (1e-9 * endurance in wear units) and float accumulation *)
let slack v = 1e-6 *. Float.max (Float.abs v) 1.0

let check_bound ~what ~stopped_at bound = function
  | Some t ->
    if t +. slack t < bound.lower then
      Error
        (Printf.sprintf "%s %.6g below static lower bound %.6g" what t
           bound.lower)
    else if t -. slack t > bound.upper then
      Error
        (Printf.sprintf "%s %.6g above static upper bound %.6g" what t
           bound.upper)
    else Ok ()
  | None ->
    (* never happened: only consistent if the campaign stopped before the
       static upper bound forced the event *)
    if stopped_at -. slack stopped_at > bound.upper then
      Error
        (Printf.sprintf
           "%s never happened in %.6g epochs but the static upper bound is %.6g"
           what stopped_at bound.upper)
    else Ok ()

(* The one verdict behind both front ends: the identity of the simulated
   cell (strategy, endurance, fault rate) must be the certificate's, then
   both lifetimes must sit in their brackets. *)
let check c ~strategy ~endurance ~fault_rate ~epochs ~ttff ~half_life =
  let ( let* ) = Result.bind in
  let* () =
    if c.c_strategy <> strategy then
      Error
        (Printf.sprintf "strategy mismatch: certificate %s, result %s"
           (Horizon.strategy_name c.c_strategy)
           (Horizon.strategy_name strategy))
    else Ok ()
  in
  let* () =
    if Float.abs (c.c_endurance -. endurance) > slack c.c_endurance then
      Error
        (Printf.sprintf "endurance mismatch: certificate %.6g, result %.6g"
           c.c_endurance endurance)
    else Ok ()
  in
  let* () =
    if Float.abs (c.c_fault_rate -. fault_rate) > 1e-9 then
      Error
        (Printf.sprintf "fault-rate mismatch: certificate %.6g, result %.6g"
           c.c_fault_rate fault_rate)
    else Ok ()
  in
  let* () = check_bound ~what:"ttff" ~stopped_at:epochs c.c_ttff ttff in
  check_bound ~what:"half-life" ~stopped_at:epochs c.c_half_life half_life

let check_result c (r : Horizon.result) =
  check c ~strategy:r.Horizon.r_strategy ~endurance:r.Horizon.r_endurance
    ~fault_rate:r.Horizon.r_fault_rate ~epochs:r.Horizon.r_epochs
    ~ttff:r.Horizon.r_ttff ~half_life:r.Horizon.r_half_life

let find cells lbl =
  let matches c =
    let cl = label c in
    String.equal cl lbl
    || String.length lbl > String.length cl
       && String.sub lbl 0 (String.length cl + 1) = cl ^ "/"
  in
  List.find_map (fun (_, _, c) -> if matches c then Some c else None) cells

let check_row_json cells row =
  let ( let* ) = Result.bind in
  let field k conv =
    match Option.bind (Json.member k row) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "row has no %s field" k)
  in
  let* schema = field "schema" Json.to_string in
  let* () =
    if schema = "plim-horizon/v1" then Ok ()
    else Error (Printf.sprintf "row schema %S is not plim-horizon/v1" schema)
  in
  let* lbl = field "label" Json.to_string in
  Result.map_error (fun e -> lbl ^ ": " ^ e)
    (let* c =
       Option.to_result ~none:"no certificate for this cell" (find cells lbl)
     in
     let* strategy =
       Result.bind (field "strategy" Json.to_string) Horizon.strategy_of_string
     in
     let* fault_rate = field "fault_rate" Json.to_float in
     let* endurance = field "endurance" Json.to_float in
     let* epochs = field "epochs" Json.to_float in
     (* -1 is the horizon sentinel for "did not happen before the stop" *)
     let lifetime k =
       Result.map (fun v -> if v >= 0.0 then Some v else None) (field k Json.to_float)
     in
     let* ttff = lifetime "ttff_epochs" in
     let* half_life = lifetime "half_life_epochs" in
     let* () = check c ~strategy ~endurance ~fault_rate ~epochs ~ttff ~half_life in
     Ok lbl)

let read_rows path =
  let ( let* ) = Result.bind in
  let* text = Plim_util.File.read path in
  match Json.parse text with
  | Ok (Json.Arr rows) -> Ok rows
  | Ok doc -> (
    (* a results object carries its rows under "horizon"; any other
       document is one row *)
    match Json.member "horizon" doc with
    | None -> Ok [ doc ]
    | Some rows ->
      Option.to_result
        ~none:(path ^ ": \"horizon\" is not an array of rows")
        (Json.to_list rows))
  | Error _ ->
    let rec lines i acc = function
      | [] -> Ok (List.rev acc)
      | line :: rest -> (
        match String.trim line with
        | "" -> lines (i + 1) acc rest
        | line -> (
          match Json.parse line with
          | Ok row -> lines (i + 1) (row :: acc) rest
          | Error e -> Error (Printf.sprintf "%s: line %d: %s" path i e)))
    in
    lines 1 [] (String.split_on_char '\n' text)
