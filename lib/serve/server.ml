module Mig = Plim_mig.Mig
module Program = Plim_isa.Program
module Pipeline = Plim_core.Pipeline
module Fault_model = Plim_fault.Fault_model
module Exec = Plim_fault.Exec
module Controller = Plim_machine.Plim_controller
module Wear = Plim_telemetry.Wear
module Histogram = Plim_telemetry.Histogram
module Splitmix = Plim_util.Splitmix
module Metrics = Plim_obs.Metrics

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

let config t = t.cfg

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
    let spare =
      Array.to_seq t.fleet
      |> Seq.filter (fun s -> Shard.status s = Shard.Spare)
      |> Seq.uncons
    in
    match spare with
    | Some (s, _) ->
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

let materialize_fleet t =
  if Array.length t.fleet = 0 then begin
    let lines =
      if t.cfg.lines > 0 then t.cfg.lines
      else
        List.fold_left
          (fun acc (_, (e : Cache.entry)) ->
            max acc (Program.num_cells e.Cache.result.Pipeline.program))
          1 (Cache.entries t.cache)
    in
    t.fleet <-
      Array.init (t.cfg.shards + t.cfg.spare_shards) (fun id ->
        let spec =
          { t.cfg.fault_spec with
            Fault_model.seed = Splitmix.derive t.cfg.fault_spec.Fault_model.seed id }
        in
        let status = if id < t.cfg.shards then Shard.Active else Shard.Spare in
        Shard.create ?endurance:t.cfg.endurance ?geometry:t.cfg.geometry ~spec
          ~status ~id ~lines ~spares:t.cfg.cell_spares ())
  end

type exec_job = {
  index : int;                  (* position within the batch *)
  digest : string;
  entry : Cache.entry;
  inputs : (string * bool) list;
}

(* Reference outputs on an ideal (fault-free, unlimited) machine — the
   correctness oracle for [check].  Pure: allocates its own crossbar. *)
let reference_outputs entry inputs =
  let outputs, _, _ =
    Controller.run entry.Cache.result.Pipeline.program ~inputs
  in
  outputs

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

let run ?pool ?(batch = 32) t requests =
  if batch <= 0 then invalid_arg "Server.run: batch size must be positive";
  let pmap ~f xs =
    match pool with Some p -> Plim_par.map p ~f xs | None -> List.map f xs
  in
  let writes_before = if Array.length t.fleet = 0 then 0 else fleet_total_writes t in
  let rec batches acc = function
    | [] -> List.rev acc
    | xs ->
      let rec take n ys zs =
        match (n, zs) with
        | 0, _ | _, [] -> (List.rev ys, zs)
        | n, z :: zs -> take (n - 1) (z :: ys) zs
      in
      let b, rest = take batch [] xs in
      batches (b :: acc) rest
  in
  let serve_batch reqs =
    let reqs = Array.of_list reqs in
    let n = Array.length reqs in
    t.requests <- t.requests + n;
    Metrics.incr ~by:n m_requests;
    let responses = Array.make n None in
    (* Phase 1: classify. Compile hits answer immediately; distinct
       missing digests become compile jobs; executions wait for phase 2
       so batch-compiled programs are visible to them. *)
    let miss_order = ref [] and miss_seen = Hashtbl.create 8 in
    let pending_compiles = ref [] and pending_execs = ref [] in
    Array.iteri
      (fun i req ->
        match req with
        | Workload.Compile { label; graph } ->
          t.compiles <- t.compiles + 1;
          let digest = Cache.digest_of graph in
          (match Cache.find t.cache digest with
          | Some _ ->
            Cache.record_hit t.cache;
            observe_latency t 1;
            responses.(i) <- Some (Compiled { digest; cached = true })
          | None when Hashtbl.mem miss_seen digest ->
            (* same digest already compiling earlier in this batch: the
               in-flight compile serves this request too, so the counters
               and responses are independent of the batch size *)
            Cache.record_hit t.cache;
            observe_latency t 1;
            responses.(i) <- Some (Compiled { digest; cached = true })
          | None ->
            Cache.record_miss t.cache;
            Hashtbl.add miss_seen digest ();
            miss_order := (digest, label, graph) :: !miss_order;
            pending_compiles := (i, digest, graph) :: !pending_compiles)
        | Workload.Execute { digest; inputs } ->
          pending_execs := (i, digest, inputs) :: !pending_execs)
      reqs;
    (* Phase 2: compile the distinct misses in parallel; merge into the
       cache in submission order (first writer wins, so the merge order
       is fixed by the request stream, not by completion order). *)
    let misses = List.rev !miss_order in
    let compiled =
      pmap misses ~f:(fun (digest, label, graph) ->
        let result = Pipeline.compile t.cfg.pipeline graph in
        (digest, { Cache.label; source = graph; result }))
    in
    List.iter (fun (digest, entry) -> Cache.add t.cache ~digest entry) compiled;
    List.iter
      (fun (i, digest, graph) ->
        observe_latency t (Mig.size graph);
        responses.(i) <- Some (Compiled { digest; cached = false }))
      (List.rev !pending_compiles);
    (* Phase 2b: resolve executions against the updated cache. *)
    let jobs =
      List.rev !pending_execs
      |> List.filter_map (fun (i, digest, inputs) ->
           match Cache.hit t.cache digest with
           | Some entry -> Some { index = i; digest; entry; inputs }
           | None ->
             t.rejected <- t.rejected + 1;
             Metrics.incr m_rejected;
             responses.(i) <-
               Some (Rejected { digest; reason = "unknown program digest" });
             None)
    in
    if jobs <> [] then materialize_fleet t;
    let shard_lines =
      if Array.length t.fleet = 0 then 0 else Shard.lines t.fleet.(0)
    in
    let jobs =
      List.filter
        (fun j ->
          let cells = Program.num_cells j.entry.Cache.result.Pipeline.program in
          if cells > shard_lines then begin
            t.rejected <- t.rejected + 1;
            Metrics.incr m_rejected;
            responses.(j.index) <-
              Some
                (Rejected
                   { digest = j.digest;
                     reason =
                       Printf.sprintf
                         "program needs %d lines, shards have %d" cells
                         shard_lines });
            false
          end
          else true)
        jobs
    in
    (* Phase 3: sequential placement onto the least-worn eligible active
       shard.  Wear is read once at batch start (through Wear.skew_of)
       and advanced by the static footprint of work placed so far, so the
       placement depends only on pre-batch fleet state and batch order. *)
    let fleet_n = Array.length t.fleet in
    let wear0 =
      Array.map (fun s -> (Wear.skew_of (Shard.wear_counts s)).Wear.total) t.fleet
    in
    let extra = Array.make fleet_n 0 in
    let queues = Array.make fleet_n [] in
    List.iter
      (fun j ->
        let best = ref (-1) in
        Array.iter
          (fun s ->
            if Shard.status s = Shard.Active then
              let i = Shard.id s in
              if
                !best < 0
                || wear0.(i) + extra.(i) < wear0.(!best) + extra.(!best)
              then best := i)
          t.fleet;
        if !best < 0 then begin
          t.rejected <- t.rejected + 1;
          Metrics.incr m_rejected;
          responses.(j.index) <-
            Some (Rejected { digest = j.digest; reason = "no active shards" })
        end
        else begin
          extra.(!best) <-
            extra.(!best) + footprint j.entry.Cache.result.Pipeline.program;
          queues.(!best) <- j :: queues.(!best)
        end)
      jobs;
    (* Phase 4: one parallel task per shard with work; each task owns its
       shard's mutable state exclusively and runs its queue in batch
       order.  The fault-free reference run is pure, so it rides along. *)
    let loaded =
      Array.to_list t.fleet
      |> List.filter (fun s -> queues.(Shard.id s) <> [])
    in
    let shard_results =
      pmap loaded ~f:(fun s ->
        List.rev queues.(Shard.id s)
        |> List.map (fun j ->
             let p = j.entry.Cache.result.Pipeline.program in
             let outcome, stats = Shard.execute ~verify:t.cfg.verify s p
                 ~inputs:j.inputs
             in
             let ideal =
               if t.cfg.check then Some (reference_outputs j.entry j.inputs)
               else None
             in
             (j, Shard.id s, outcome, stats, ideal)))
    in
    (* Phase 5: sequential merge in shard-id order (phase 4 preserves the
       submission order of [loaded], which is ascending id).  A dry spare
       pool retires the shard and replays the abandoned execution on the
       least-worn surviving active shard. *)
    let finalize j shard_id outputs ideal cycles =
      let correct =
        match ideal with
        | None -> None
        | Some ref_outputs ->
          let ok = outputs = ref_outputs in
          if not ok then begin
            t.incorrect <- t.incorrect + 1;
            Metrics.incr m_incorrect
          end;
          Some ok
      in
      t.executes <- t.executes + 1;
      observe_latency t cycles;
      observe_groups t j.digest j.entry.Cache.result.Pipeline.program;
      responses.(j.index) <-
        Some (Executed { digest = j.digest; shard = shard_id; outputs; correct;
                         cycles })
    in
    List.iter
      (fun results ->
        List.iter
          (fun (j, shard_id, outcome, stats, ideal) ->
            let p = j.entry.Cache.result.Pipeline.program in
            let cycles =
              Controller.static_cycles p + stats.Exec.verify_reads
              + stats.Exec.retries
            in
            match outcome with
            | Exec.Completed outputs -> finalize j shard_id outputs ideal cycles
            | Exec.Out_of_spares _ ->
              retire_shard t t.fleet.(shard_id);
              (* replay, chasing surviving shards until one completes *)
              let rec replay cycles =
                let best = ref (-1) and best_w = ref max_int in
                Array.iter
                  (fun s ->
                    if Shard.status s = Shard.Active then begin
                      let w = Shard.total_writes s in
                      if w < !best_w then begin
                        best := Shard.id s;
                        best_w := w
                      end
                    end)
                  t.fleet;
                if !best < 0 then begin
                  t.rejected <- t.rejected + 1;
                  Metrics.incr m_rejected;
                  responses.(j.index) <-
                    Some
                      (Rejected
                         { digest = j.digest; reason = "fleet out of shards" })
                end
                else begin
                  t.re_runs <- t.re_runs + 1;
                  Metrics.incr m_reruns;
                  let s = t.fleet.(!best) in
                  let outcome, stats =
                    Shard.execute ~verify:t.cfg.verify s p ~inputs:j.inputs
                  in
                  let cycles =
                    cycles + Controller.static_cycles p
                    + stats.Exec.verify_reads + stats.Exec.retries
                  in
                  match outcome with
                  | Exec.Completed outputs ->
                    finalize j !best outputs ideal cycles
                  | Exec.Out_of_spares _ ->
                    retire_shard t s;
                    replay cycles
                end
              in
              replay cycles)
          results)
      shard_results;
    Array.to_list responses
    |> List.map (function
         | Some r -> r
         | None -> Rejected { digest = "-"; reason = "internal: unanswered" })
  in
  let out = List.concat_map serve_batch (batches [] requests) in
  Metrics.add_gauge g_fleet_writes
    (float_of_int (fleet_total_writes t - writes_before));
  out

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
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"schema\":\"plim-serve-fleet/v1\",\"shards\":[";
  Array.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Wear.heatmap_json
           ~label:
             (Printf.sprintf "shard%d:%s" (Shard.id s)
                (Shard.status_name (Shard.status s)))
           (Shard.wear_counts s)))
    t.fleet;
  Buffer.add_string b "]}";
  Buffer.contents b

let row_json t ~label ~wall_s =
  let s = summary t in
  let lat = t.latency in
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
  let geometry_fields =
    match t.cfg.geometry with
    | None -> "\"geometry\":null"
    | Some g ->
      let gl = t.group_latency in
      Printf.sprintf
        "\"geometry\":%s,\"groups\":{\"p50\":%d,\"p90\":%d,\"p99\":%d,\
         \"max\":%d,\"total\":%d}"
        (Plim_util.Jsonx.quote (Plim_geometry.to_string g))
        (Histogram.p50 gl) (Histogram.p90 gl) (Histogram.p99 gl)
        (Histogram.max_value gl) s.total_groups
  in
  Printf.sprintf
    "{\"schema\":\"plim-serve/v1\",\"label\":%s,\"requests\":%d,\"compiles\":%d,\
     \"executes\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"rejected\":%d,\
     \"incorrect\":%d,\"re_runs\":%d,\"retired_shards\":%d,\
     \"spare_activations\":%d,\"total_cycles\":%d,\
     \"latency\":{\"p50\":%d,\"p90\":%d,\"p99\":%d,\"max\":%d},%s,\
     \"verify\":{\"reads\":%d,\"detections\":%d,\"remaps\":%d,\"retries\":%d},\
     \"fleet\":{\"active\":%d,\"retired\":%d,\"spare\":%d,\"gini\":%.6g,\
     \"max_mean\":%.6g,\"stdev\":%.6g,\"total_writes\":%d},\
     \"wall_s\":%.6g,\"requests_per_sec\":%.6g}"
    (Plim_util.Jsonx.quote label)
    s.requests s.compiles s.executes s.cache_hits s.cache_misses
    s.rejected s.incorrect s.re_runs s.retired_shards s.spare_activations
    s.total_cycles (Histogram.p50 lat) (Histogram.p90 lat) (Histogram.p99 lat)
    (Histogram.max_value lat) geometry_fields s.exec_stats.Exec.verify_reads
    s.exec_stats.Exec.detections s.exec_stats.Exec.remaps
    s.exec_stats.Exec.retries active retired spare skew.Wear.gini
    skew.Wear.max_mean skew.Wear.stdev skew.Wear.total wall_s rps
