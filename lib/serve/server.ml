module Mig = Plim_mig.Mig
module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Fault_model = Plim_fault.Fault_model
module Exec = Plim_fault.Exec
module Controller = Plim_machine.Plim_controller
module Wear = Plim_telemetry.Wear
module Histogram = Plim_telemetry.Histogram
module Json = Plim_telemetry.Json
module Splitmix = Plim_util.Splitmix
module Metrics = Plim_obs.Metrics
module Profile = Plim_obs.Profile

type config = {
  pipeline : Pipeline.config;
  shards : int;
  spare_shards : int;
  lines : int;
  cell_spares : int;
  verify : bool;
  fault_spec : Fault_model.spec;
  endurance : int option;
  check : bool;
  seed : int;
  geometry : Plim_geometry.grid option;
}

let default_config =
  { pipeline = Pipeline.endurance_full;
    shards = 4;
    spare_shards = 1;
    lines = 0;
    cell_spares = 8;
    verify = true;
    fault_spec = Fault_model.none;
    endurance = None;
    check = true;
    seed = 1;
    geometry = None }

type response =
  | Compiled of { digest : string; cached : bool }
  | Executed of {
      digest : string;
      shard : int;
      outputs : (string * bool) list;
      correct : bool option;
      cycles : int;
    }
  | Rejected of { digest : string; reason : string }

type summary = {
  requests : int;
  compiles : int;
  executes : int;
  cache_hits : int;
  cache_misses : int;
  rejected : int;
  incorrect : int;
  re_runs : int;
  retired_shards : int;
  spare_activations : int;
  total_cycles : int;
  total_groups : int;
  exec_stats : Exec.stats;
}

type t = {
  cfg : config;
  cache : Cache.t;
  mutable fleet : Shard.t array;  (* [||] until the first execution batch *)
  latency : Histogram.t;
  group_latency : Histogram.t;
  (* digest -> row-parallel group count of the cached program; the
     schedule is a pure function of (program, grid), so one computation
     serves every execution of the digest *)
  groups_memo : (string, int) Hashtbl.t;
  mutable requests : int;
  mutable compiles : int;
  mutable executes : int;
  mutable rejected : int;
  mutable incorrect : int;
  mutable re_runs : int;
  mutable retired_shards : int;
  mutable spare_activations : int;
  mutable total_cycles : int;
  mutable total_groups : int;
}

let m_requests = Metrics.counter "serve.requests"
let m_rejected = Metrics.counter "serve.rejected"
let m_incorrect = Metrics.counter "serve.incorrect"
let m_retired = Metrics.counter "serve.retired_shards"
let m_reruns = Metrics.counter "serve.reruns"
let g_fleet_writes = Metrics.gauge "serve.fleet_writes"

let validate_config cfg =
  if cfg.shards < 1 then invalid_arg "Server.create: need at least one shard";
  if cfg.spare_shards < 0 then
    invalid_arg "Server.create: negative spare shard count";
  if cfg.lines < 0 then invalid_arg "Server.create: negative line count";
  if cfg.cell_spares < 0 then
    invalid_arg "Server.create: negative cell spare count"

let create cfg =
  validate_config cfg;
  { cfg;
    cache = Cache.create ();
    fleet = [||];
    latency = Histogram.create ();
    group_latency = Histogram.create ();
    groups_memo = Hashtbl.create 16;
    requests = 0;
    compiles = 0;
    executes = 0;
    rejected = 0;
    incorrect = 0;
    re_runs = 0;
    retired_shards = 0;
    spare_activations = 0;
    total_cycles = 0;
    total_groups = 0 }

(* Static write footprint of one execution — the placement cost model:
   one RMW write per instruction.  Scrub and PI deposits are load
   pulses, which the wear counters exclude, and verify traffic is
   fault-dependent; both are excluded so that on a fault-free shard the
   footprint equals the wear delta exactly and placement is independent
   of where the batch boundaries fall. *)
let footprint (p : Program.t) = Program.length p

let fleet_total_writes t =
  Array.fold_left (fun acc s -> acc + Shard.total_writes s) 0 t.fleet

(* Retire a shard and keep the active population stable by waking the
   lowest-id spare, if one remains. *)
let retire_shard t shard =
  if Shard.status shard = Shard.Active then begin
    Shard.set_status shard Shard.Retired;
    t.retired_shards <- t.retired_shards + 1;
    Metrics.incr m_retired;
    match Array.find_opt (fun s -> Shard.status s = Shard.Spare) t.fleet with
    | Some s ->
      Shard.set_status s Shard.Active;
      t.spare_activations <- t.spare_activations + 1
    | None -> ()
  end

let force_retire t id =
  if id < 0 || id >= Array.length t.fleet then false
  else
    let s = t.fleet.(id) in
    if Shard.status s <> Shard.Active then false
    else begin
      retire_shard t s;
      true
    end

(* The active shard of least [wear]; ties go to the lowest id. *)
let least_worn t ~wear =
  Array.fold_left
    (fun best s ->
      match best with
      | _ when Shard.status s <> Shard.Active -> best
      | Some b when wear b <= wear s -> best
      | _ -> Some s)
    None t.fleet

let shard_lines cfg ~cells =
  if cfg.lines > 0 then cfg.lines else List.fold_left max 1 cells

let materialize_fleet t =
  if Array.length t.fleet = 0 then begin
    let cells =
      List.map
        (fun (_, (r : Pipeline.result)) -> Program.num_cells r.program)
        (Cache.entries t.cache)
    in
    let lines = shard_lines t.cfg ~cells in
    t.fleet <-
      Array.init (t.cfg.shards + t.cfg.spare_shards) (fun id ->
        let status = if id < t.cfg.shards then Shard.Active else Shard.Spare in
        Shard.create ?endurance:t.cfg.endurance ?geometry:t.cfg.geometry
          ~spec:(Shard.fault_spec t.cfg.fault_spec ~id) ~status ~id ~lines
          ~spares:t.cfg.cell_spares ())
  end

type exec_job = {
  index : int;                  (* position within the batch *)
  digest : string;
  program : Program.t;
  inputs : bool array;          (* unpacked once, shared by every run *)
}

(* Reference outputs on an ideal (fault-free, unlimited) machine — the
   correctness oracle for [check].  Pure: allocates its own crossbar. *)
let reference_outputs j =
  let outputs, _, _ = Controller.run j.program ~inputs:j.inputs in
  outputs

(* Simulated service cost of one execution attempt. *)
let attempt_cycles p (stats : Exec.stats) =
  Controller.static_cycles p + stats.Exec.verify_reads + stats.Exec.retries

let observe_latency t cycles =
  Histogram.observe t.latency cycles;
  t.total_cycles <- t.total_cycles + cycles

(* Row-parallel group count of the digest's program under the configured
   geometry; memoized per digest (the schedule is static).  A cached
   program always fits: execute requests are bounded by the shard line
   count, which {!Shard.create} bounds by the grid area. *)
let groups_of t digest (p : Program.t) =
  match t.cfg.geometry with
  | None -> None
  | Some g -> (
    match Hashtbl.find_opt t.groups_memo digest with
    | Some n -> Some n
    | None -> (
      match Controller.static_groups ~geometry:g p with
      | Ok n ->
        Hashtbl.add t.groups_memo digest n;
        Some n
      | Error msg -> invalid_arg ("Server: " ^ msg)))

let observe_groups t digest p =
  match groups_of t digest p with
  | None -> ()
  | Some n ->
    Histogram.observe t.group_latency n;
    t.total_groups <- t.total_groups + n

let pmap pool ~f xs =
  match pool with Some p -> Plim_par.map p ~f xs | None -> List.map f xs

(* One batch in five phases, each a Profile span (classify, compile,
   place, execute, settle), so a profiled run attributes all of
   [Server.run]'s time; there is no span per request.  Each response
   goes to [answer] with its index in the batch. *)
let serve_batch ?pool t reqs ~answer =
  let n = Array.length reqs in
  t.requests <- t.requests + n;
  Metrics.incr ~by:n m_requests;
  let reject i digest reason =
    t.rejected <- t.rejected + 1;
    Metrics.incr m_rejected;
    answer i (Rejected { digest; reason })
  in
  (* Phase 1: classify. Compile hits answer immediately; distinct
     missing digests become compile jobs; executions wait for phase 2
     so batch-compiled programs are visible to them. *)
  let misses, pending_execs =
    Profile.span "server.classify" @@ fun () ->
    let misses = ref [] and miss_seen = Hashtbl.create 8 and pending_execs = ref [] in
    Array.iteri
      (fun i req ->
        match req with
        | Workload.Compile { graph } ->
          t.compiles <- t.compiles + 1;
          let digest = Cache.digest_of graph in
          if Option.is_some (Cache.find t.cache digest) || Hashtbl.mem miss_seen digest
          then begin
            (* a digest already compiling earlier in this batch is a hit
               too: the in-flight compile serves it, so the counters and
               responses are independent of the batch size *)
            Cache.record_hit t.cache;
            observe_latency t 1;
            answer i (Compiled { digest; cached = true })
          end
          else begin
            Cache.record_miss t.cache;
            Hashtbl.add miss_seen digest ();
            misses := (i, digest, graph) :: !misses
          end
        | Workload.Execute { digest; inputs } ->
          pending_execs := (i, digest, inputs) :: !pending_execs)
      reqs;
    (List.rev !misses, List.rev !pending_execs)
  in
  (* Phase 2: compile the distinct misses in parallel; merge into the
     cache in submission order (first writer wins, so the merge order
     is fixed by the request stream, not by completion order). *)
  Profile.span "server.compile" (fun () ->
      pmap pool misses ~f:(fun (_, digest, graph) ->
          (digest, Pipeline.compile t.cfg.pipeline graph))
      |> List.iter (fun (digest, result) -> Cache.add t.cache ~digest result);
      List.iter
        (fun (i, digest, graph) ->
          observe_latency t (Mig.size graph);
          answer i (Compiled { digest; cached = false }))
        misses);
  let queues =
    Profile.span "server.place" @@ fun () ->
    (* Phase 2b: resolve executions against the updated cache. *)
    let jobs =
      List.filter_map
        (fun (index, digest, inputs) ->
          match Cache.hit t.cache digest with
          | Some (r : Pipeline.result) -> (
            let width = Array.length r.program.Program.pi_cells in
            match Workload.unpack ~width inputs with
            | Ok inputs -> Some { index; digest; program = r.program; inputs }
            | Error reason ->
              reject index digest reason;
              None)
          | None ->
            reject index digest "unknown program digest";
            None)
        pending_execs
    in
    if jobs <> [] then materialize_fleet t;
    (* Phase 3: sequential placement onto the least-worn eligible active
       shard.  Wear is read once at batch start and advanced by the static
       footprint of work placed so far, so the placement depends only on
       pre-batch fleet state and batch order. *)
    let planned = Array.map Shard.total_writes t.fleet in
    let queues = Array.make (Array.length t.fleet) [] in
    List.iter
      (fun j ->
        let cells = Program.num_cells j.program and lines = Shard.lines t.fleet.(0) in
        if cells > lines then
          reject j.index j.digest
            (Printf.sprintf "program needs %d lines, shards have %d" cells lines)
        else
          match least_worn t ~wear:(fun s -> planned.(Shard.id s)) with
          | None -> reject j.index j.digest "no active shards"
          | Some s ->
            let id = Shard.id s in
            planned.(id) <- planned.(id) + footprint j.program;
            queues.(id) <- j :: queues.(id))
      jobs;
    queues
  in
  (* Phase 4: one parallel task per shard with work; each task owns its
     shard's mutable state exclusively and runs its queue in batch
     order.  The fault-free reference run is pure, so it rides along. *)
  let shard_results =
    Profile.span "server.execute" @@ fun () ->
    Array.to_list t.fleet
    |> List.filter (fun s -> queues.(Shard.id s) <> [])
    |> pmap pool ~f:(fun s ->
         List.rev queues.(Shard.id s)
         |> List.map (fun j ->
              let attempt =
                Shard.execute ~verify:t.cfg.verify s j.program ~inputs:j.inputs
              in
              let ideal = if t.cfg.check then Some (reference_outputs j) else None in
              (j, s, attempt, ideal)))
  in
  (* Phase 5: sequential merge in shard-id order (phase 4 preserves the
     submission order of the loaded shards, which is ascending id).  A
     dry spare pool retires the shard and replays the abandoned
     execution on the least-worn surviving active shard, until an
     attempt completes or no active shard is left. *)
  Profile.span "server.settle" @@ fun () ->
  let rec settle j ideal ~cycles s (outcome, stats) =
    let cycles = cycles + attempt_cycles j.program stats in
    match outcome with
    | Exec.Completed outputs ->
      let correct =
        Option.map
          (fun ref_outputs ->
            let ok = outputs = ref_outputs in
            if not ok then begin
              t.incorrect <- t.incorrect + 1;
              Metrics.incr m_incorrect
            end;
            ok)
          ideal
      in
      t.executes <- t.executes + 1;
      observe_latency t cycles;
      observe_groups t j.digest j.program;
      answer j.index
        (Executed { digest = j.digest; shard = Shard.id s; outputs; correct; cycles })
    | Exec.Out_of_spares _ -> (
      retire_shard t s;
      match least_worn t ~wear:Shard.total_writes with
      | None -> reject j.index j.digest "fleet out of shards"
      | Some s ->
        t.re_runs <- t.re_runs + 1;
        Metrics.incr m_reruns;
        settle j ideal ~cycles s
          (Shard.execute ~verify:t.cfg.verify s j.program ~inputs:j.inputs))
  in
  List.iter
    (List.iter (fun (j, s, attempt, ideal) -> settle j ideal ~cycles:0 s attempt))
    shard_results

(* The one batch loop: [answer i r] gets the response to request [i] of
   [requests]. *)
let serve ?pool ~batch t requests ~answer =
  if batch <= 0 then invalid_arg "Server.run: batch size must be positive";
  let writes_before = fleet_total_writes t in
  let reqs = Array.of_list requests in
  let rec go start =
    if start < Array.length reqs then begin
      let len = min batch (Array.length reqs - start) in
      serve_batch ?pool t (Array.sub reqs start len) ~answer:(fun i r ->
          answer (start + i) r);
      go (start + len)
    end
  in
  go 0;
  Metrics.add_gauge g_fleet_writes
    (float_of_int (fleet_total_writes t - writes_before))

let run ?pool ?(batch = 32) t requests =
  let responses = Array.make (List.length requests) None in
  serve ?pool ~batch t requests ~answer:(fun i r -> responses.(i) <- Some r);
  List.init (Array.length responses) (fun i ->
      match responses.(i) with
      | Some r -> r
      | None -> failwith (Printf.sprintf "Server.run: request %d has no response" i))

let feed ?pool ?(batch = 32) t requests =
  serve ?pool ~batch t requests ~answer:(fun _ _ -> ())

let retire_drill ?pool ?batch t requests ~retire =
  match retire with
  | [] ->
    feed ?pool ?batch t requests;
    []
  | ids ->
    let half = List.length requests / 2 in
    feed ?pool ?batch t (List.filteri (fun i _ -> i < half) requests);
    let refused = List.filter (fun id -> not (force_retire t id)) ids in
    feed ?pool ?batch t (List.filteri (fun i _ -> i >= half) requests);
    refused

let summary t =
  { requests = t.requests;
    compiles = t.compiles;
    executes = t.executes;
    cache_hits = Cache.hits t.cache;
    cache_misses = Cache.misses t.cache;
    rejected = t.rejected;
    incorrect = t.incorrect;
    re_runs = t.re_runs;
    retired_shards = t.retired_shards;
    spare_activations = t.spare_activations;
    total_cycles = t.total_cycles;
    total_groups = t.total_groups;
    exec_stats =
      Array.fold_left
        (fun acc s -> Exec.add_stats acc (Shard.stats s))
        Exec.zero_stats t.fleet }

let latency t = Histogram.copy t.latency

let group_latency t = Histogram.copy t.group_latency

let fleet_skew t =
  Array.to_list t.fleet
  |> List.filter (fun s -> Shard.status s <> Shard.Spare)
  |> List.map Shard.total_writes
  |> Array.of_list
  |> Wear.skew_of

let shard_statuses t =
  Array.to_list t.fleet
  |> List.map (fun s -> (Shard.id s, Shard.status s, Shard.total_writes s))

let shard_wear t =
  Array.to_list t.fleet
  |> List.map (fun s -> (Shard.id s, Shard.status s, Shard.wear_counts s))

let fleet_heatmap_json t =
  let heatmap s =
    let status = Shard.status_name (Shard.status s) in
    Wear.heatmap_json
      ~label:(Printf.sprintf "shard%d:%s" (Shard.id s) status)
      (Shard.wear_counts s)
  in
  Json.Obj
    [ ("schema", Str "plim-serve-fleet/v1");
      ("shards", Arr (List.map heatmap (Array.to_list t.fleet))) ]

let row_json t ~label ~wall_s =
  let s = summary t in
  let skew = fleet_skew t in
  let active, retired, spare =
    Array.fold_left
      (fun (a, r, sp) sh ->
        match Shard.status sh with
        | Shard.Active -> (a + 1, r, sp)
        | Shard.Retired -> (a, r + 1, sp)
        | Shard.Spare -> (a, r, sp + 1))
      (0, 0, 0) t.fleet
  in
  let rps = if wall_s > 0.0 then float_of_int s.requests /. wall_s else 0.0 in
  let quantiles h =
    [ ("p50", Json.Int (Histogram.p50 h)); ("p90", Int (Histogram.p90 h));
      ("p99", Int (Histogram.p99 h)); ("max", Int (Histogram.max_value h)) ]
  in
  let geometry_fields =
    match t.cfg.geometry with
    | None -> [ ("geometry", Json.Null) ]
    | Some g ->
      [ ("geometry", Str (Plim_geometry.to_string g));
        ("groups", Obj (quantiles t.group_latency @ [ ("total", Int s.total_groups) ])) ]
  in
  let x = s.exec_stats in
  Json.Obj
    ([ ("schema", Json.Str "plim-serve/v1"); ("label", Str label);
       ("requests", Int s.requests); ("compiles", Int s.compiles);
       ("executes", Int s.executes); ("cache_hits", Int s.cache_hits);
       ("cache_misses", Int s.cache_misses); ("rejected", Int s.rejected);
       ("incorrect", Int s.incorrect); ("re_runs", Int s.re_runs);
       ("retired_shards", Int s.retired_shards);
       ("spare_activations", Int s.spare_activations);
       ("total_cycles", Int s.total_cycles); ("latency", Obj (quantiles t.latency)) ]
    @ geometry_fields
    @ [ ( "verify",
          Obj
            [ ("reads", Int x.Exec.verify_reads); ("detections", Int x.Exec.detections);
              ("remaps", Int x.Exec.remaps); ("retries", Int x.Exec.retries) ] );
        ( "fleet",
          Obj
            [ ("active", Int active); ("retired", Int retired); ("spare", Int spare);
              ("gini", Num skew.Wear.gini); ("max_mean", Num skew.Wear.max_mean);
              ("stdev", Num skew.Wear.stdev); ("total_writes", Int skew.Wear.total) ] );
        ("wall_s", Num wall_s); ("requests_per_sec", Num rps) ])
