module Workload = Plim_serve.Workload
module Cache = Plim_serve.Cache
module Shard = Plim_serve.Shard
module Server = Plim_serve.Server
module Suite = Plim_benchgen.Suite
module Fault_model = Plim_fault.Fault_model
module Hgram = Plim_telemetry.Histogram
module Json = Plim_telemetry.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* shared fixtures: the 4-circuit mix, quiet fleet config and runner *)
let specs4 = Helpers.specs4
let mix4 = Helpers.mix4

(* --- workload generators --------------------------------------------- *)

let test_zipf_mass () =
  let m = Workload.zipf_mass 1.0 5 in
  let total = Array.fold_left ( +. ) 0.0 m in
  Alcotest.(check (float 1e-9)) "normalised" 1.0 total;
  for i = 1 to 4 do
    check_bool "monotone decreasing" true (m.(i) < m.(i - 1))
  done;
  let u = Workload.zipf_mass 0.0 4 in
  Array.iter (fun p -> Alcotest.(check (float 1e-9)) "uniform at s=0" 0.25 p) u;
  Alcotest.check_raises "empty population"
    (Invalid_argument "Workload.zipf_mass: need a positive rank count") (fun () ->
      ignore (Workload.zipf_mass 1.0 0))

(* chi-square of the sampled program popularity against the Zipf mass —
   the same style of guard as splitmix's uniformity test *)
let test_zipf_chi_square () =
  let mix = { mix4 with Workload.zipf = 1.0; compile_ratio = 0.0 } in
  let requests = 4_000 in
  let stream = Workload.generate ~seed:0xC41 ~requests mix in
  let by_digest = Hashtbl.create 8 in
  List.iteri
    (fun rank (p : Workload.program) -> Hashtbl.replace by_digest p.Workload.digest rank)
    mix.Workload.programs;
  let n = List.length mix.Workload.programs in
  let counts = Array.make n 0 in
  let sampled = ref 0 in
  List.iter
    (function
      | Workload.Execute { digest; _ } ->
        let rank = Hashtbl.find by_digest digest in
        counts.(rank) <- counts.(rank) + 1;
        incr sampled
      | Workload.Compile _ -> ())
    stream;
  check_int "all sampled requests are executes at ratio 0" requests !sampled;
  let mass = Workload.zipf_mass 1.0 n in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = mass.(i) *. float_of_int requests in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  (* df = 3; crit(0.001) ~ 16.3 — 30 passes with huge margin while still
     catching a uniform sampler (chi2 ~ 390 for this mass at 4k draws) *)
  if !chi2 > 30.0 then Alcotest.failf "zipf chi-square %f" !chi2;
  check_bool "rank 0 strictly hottest" true
    (counts.(0) > counts.(1) && counts.(1) > counts.(n - 1))

let test_generate_deterministic () =
  let a = Workload.generate ~seed:7 ~requests:300 mix4 in
  let b = Workload.generate ~seed:7 ~requests:300 mix4 in
  check_bool "same seed, same stream" true (a = b);
  let c = Workload.generate ~seed:8 ~requests:300 mix4 in
  check_bool "different seed, different stream" true (a <> c);
  check_int "warm-up + sampled" (List.length mix4.Workload.programs + 300)
    (List.length a)

(* A generated stream stays resident for a whole replay, so a recurring
   hot vector is one shared string, not a copy per request. *)
let test_generate_shares_hot_vectors () =
  let stream =
    Workload.generate ~seed:7 ~requests:400
      { mix4 with Workload.hot_fraction = 1.0; compile_ratio = 0.0 }
  in
  let first = Hashtbl.create 64 in
  List.iter
    (function
      | Workload.Compile _ -> ()
      | Workload.Execute { digest; inputs } -> (
        match Hashtbl.find_opt first (digest, inputs) with
        | None -> Hashtbl.add first (digest, inputs) inputs
        | Some v0 -> check_bool "hot vector shared" true (inputs == v0)))
    stream;
  check_bool "several hot vectors seen" true (Hashtbl.length first > 4)

(* The source graph of the program [digest] of [mix]. *)
let graph_of (mix : Workload.mix) digest =
  (List.find
     (fun (p : Workload.program) -> p.Workload.digest = digest)
     mix.Workload.programs)
    .Workload.graph

let unpack_exn ~width inputs =
  match Workload.unpack ~width inputs with
  | Ok v -> v
  | Error e -> Alcotest.failf "Workload.unpack: %s" e

let small_mix = lazy (Workload.mix_of_suite Suite.small_suite)

(* Each request of the small-suite stream at seed 1 as one line: its
   kind, its digest and, for an execution, its input bits in input
   order.  The stream must stay the same function of the seed whatever
   the vector representation. *)
let test_generate_pinned () =
  let mix = Lazy.force small_mix in
  let line = function
    | Workload.Compile { graph } -> "C " ^ Cache.digest_of graph
    | Workload.Execute { digest; inputs } ->
      let width = Plim_mig.Mig.num_inputs (graph_of mix digest) in
      let bits = unpack_exn ~width inputs in
      "E " ^ digest ^ " "
      ^ String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits))
  in
  let got = List.map line (Workload.generate ~seed:1 ~requests:2000 mix) in
  let expected =
    In_channel.with_open_bin "expected/workload-small-seed1.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (( <> ) "")
  in
  check_int "pinned request count" (List.length expected) (List.length got);
  List.iteri
    (fun i (e, g) -> Alcotest.(check string) (Printf.sprintf "request %d" i) e g)
    (List.combine expected got)

let test_unpack () =
  let bits = Alcotest.(check (array bool)) in
  bits "LSB first" [| true; false; false; false; false; false; false; false; true |]
    (unpack_exn ~width:9 "\001\001");
  bits "no inputs" [||] (unpack_exn ~width:0 "");
  let error what ~width s msg =
    Alcotest.(check (result (array bool) string))
      what (Error msg) (Workload.unpack ~width s)
  in
  error "short" ~width:9 "\001"
    "input vector has 1 bytes, program has 9 inputs (2 bytes)";
  error "long" ~width:8 "\001\000"
    "input vector has 2 bytes, program has 8 inputs (1 bytes)"

(* The stream a serve replay keeps resident: words per sampled request
   beyond the mix it is drawn from.  A request is a list cell and an
   Execute block; a cold vector adds a short string, a hot one nothing.
   A (name, bool) list per vector read 14.9; packed vectors read 6.3. *)
let test_stream_words () =
  let mix = Lazy.force small_mix in
  let requests = 32_000 in
  let stream = Workload.generate ~seed:1 ~requests mix in
  let words =
    Obj.reachable_words (Obj.repr (stream, mix)) - Obj.reachable_words (Obj.repr mix)
  in
  let per_request = float_of_int words /. float_of_int requests in
  if per_request > 8.0 then
    Alcotest.failf "%.2f words per sampled request (bound 8)" per_request

let test_generate_warmup_first () =
  let stream = Workload.generate ~seed:3 ~requests:50 mix4 in
  let programs = mix4.Workload.programs in
  List.iteri
    (fun i (p : Workload.program) ->
      match List.nth stream i with
      | Workload.Compile { graph } ->
        Alcotest.(check string) "warm-up order" p.Workload.digest (Cache.digest_of graph)
      | Workload.Execute _ -> Alcotest.fail "warm-up must precede sampling")
    programs;
  let digests = List.map (fun p -> p.Workload.digest) programs in
  List.iter
    (function
      | Workload.Execute { digest; _ } ->
        check_bool "execute digest known" true (List.mem digest digests)
      | Workload.Compile _ -> ())
    stream

let distinct_inputs_per_program stream =
  let tbl = Hashtbl.create 8 in
  List.iter
    (function
      | Workload.Execute { digest; inputs } ->
        let seen =
          match Hashtbl.find_opt tbl digest with Some s -> s | None -> []
        in
        if not (List.mem inputs seen) then Hashtbl.replace tbl digest (inputs :: seen)
      | Workload.Compile _ -> ())
    stream;
  Hashtbl.fold (fun _ seen acc -> max acc (List.length seen)) tbl 0

let test_hot_cold_skew () =
  let hot =
    Workload.generate ~seed:11 ~requests:400
      { mix4 with Workload.hot_fraction = 1.0; hot_pool = 2; compile_ratio = 0.0 }
  in
  check_bool "fully hot: at most pool-many distinct vectors" true
    (distinct_inputs_per_program hot <= 2);
  let cold =
    Workload.generate ~seed:11 ~requests:400
      { mix4 with Workload.hot_fraction = 0.0; compile_ratio = 0.0 }
  in
  check_bool "fully cold: far more distinct vectors" true
    (distinct_inputs_per_program cold > 10)

(* --- cache ----------------------------------------------------------- *)

let test_cache_digest_stability () =
  let g = Suite.build_cached (List.hd specs4) in
  Alcotest.(check string) "digest is pure" (Cache.digest_of g) (Cache.digest_of g);
  let g2 = Suite.build_cached (List.nth specs4 1) in
  check_bool "different graphs, different digests" true
    (Cache.digest_of g <> Cache.digest_of g2)

(* The small suite's cache keys.  They appear in serve output and name
   corpus files, so a change to the .mig text or to its hashing shows
   here first. *)
let test_cache_digest_pins () =
  let pins =
    [ ("adder8", "c196e81af7524b14"); ("bar8", "58ea43e8892bd81d");
      ("div8", "613576cb4e41180c"); ("max8", "6dc99d8c41c77f69");
      ("multiplier8", "e391fba8f2e71777"); ("sqrt8", "7c31047169aa2e40");
      ("square8", "0f335e46dcded576"); ("dec4", "7031d9bf31a8ee61");
      ("priority16", "4d1e4745efff6cf9"); ("voter15", "9fa6491d063ba16f");
      ("rc_small", "fb2a4476cb2ca782") ]
  in
  check_int "one pin per small-suite circuit" (List.length Suite.small_suite)
    (List.length pins);
  List.iter
    (fun (spec : Suite.spec) ->
      let g = Suite.build_cached spec in
      let name = spec.Suite.name in
      Alcotest.(check string) name (List.assoc name pins) (Cache.digest_of g);
      Alcotest.(check string) (name ^ " Mig_io digest") (List.assoc name pins)
        (Plim_mig.Mig_io.digest g))
    Suite.small_suite

(* --- server ---------------------------------------------------------- *)

let quiet_config = Helpers.quiet_config
let run_server = Helpers.run_server

let test_server_end_to_end () =
  let stream = Workload.generate ~seed:5 ~requests:120 mix4 in
  let server, responses = run_server quiet_config stream in
  let s = Server.summary server in
  check_int "every request answered" (List.length stream) (List.length responses);
  check_int "requests counted" (List.length stream) s.Server.requests;
  check_int "no rejections" 0 s.Server.rejected;
  check_int "no incorrect outputs" 0 s.Server.incorrect;
  check_bool "cache hits on repeated digests" true (s.Server.cache_hits > 0);
  check_int "one miss per distinct program" (List.length specs4) s.Server.cache_misses;
  check_bool "executions happened" true (s.Server.executes > 0);
  List.iter
    (function
      | Server.Executed { correct; cycles; _ } ->
        Alcotest.(check (option bool)) "checked correct" (Some true) correct;
        check_bool "positive latency" true (cycles > 0)
      | Server.Compiled _ -> ()
      | Server.Rejected { reason; _ } -> Alcotest.failf "rejected: %s" reason)
    responses;
  check_bool "latency histogram populated" true
    (Hgram.count (Server.latency server) = s.Server.requests)

let test_server_warmup_then_hits () =
  (* replaying the same stream against a warm server compiles nothing new *)
  let stream = Workload.generate ~seed:9 ~requests:40 mix4 in
  let server, _ = run_server quiet_config stream in
  let s1 = Server.summary server in
  ignore (Server.run server stream);
  let s2 = Server.summary server in
  check_int "no new misses on replay" s1.Server.cache_misses s2.Server.cache_misses;
  check_bool "replay produced hits" true (s2.Server.cache_hits > s1.Server.cache_hits)

let test_server_unknown_digest_rejected () =
  let server = Server.create quiet_config in
  match Server.run server [ Workload.Execute { digest = "deadbeef"; inputs = "" } ] with
  | [ Server.Rejected { digest = "deadbeef"; _ } ] -> ()
  | _ -> Alcotest.fail "expected a rejection for an unknown digest"

let test_server_placement_balance () =
  let stream = Workload.generate ~seed:13 ~requests:150 mix4 in
  let server, _ = run_server quiet_config stream in
  List.iter
    (fun (id, status, writes) ->
      match status with
      | Shard.Active -> check_bool (Printf.sprintf "shard %d saw traffic" id) true (writes > 0)
      | Shard.Spare -> check_int (Printf.sprintf "spare %d untouched" id) 0 writes
      | Shard.Retired -> ())
    (Server.shard_statuses server);
  let skew = Server.fleet_skew server in
  check_bool "least-worn placement keeps fleet balanced" true
    (skew.Plim_telemetry.Wear.max_mean < 1.5)

let test_server_jobs_identical () =
  let stream = Workload.generate ~seed:21 ~requests:100 mix4 in
  let cfg =
    { quiet_config with
      Server.fault_spec = Fault_model.make ~transient:1e-4 ~seed:0xABC ();
      seed = 21 }
  in
  let s1, r1 = run_server cfg stream in
  let s3, r3 = run_server ~jobs:3 cfg stream in
  check_bool "responses identical at -j1 and -j3" true (r1 = r3);
  check_bool "summaries identical" true (Server.summary s1 = Server.summary s3);
  check_bool "fleet wear identical" true
    (Server.shard_statuses s1 = Server.shard_statuses s3);
  Alcotest.(check string) "latency identical"
    (Json.write (Hgram.to_json (Server.latency s1)))
    (Json.write (Hgram.to_json (Server.latency s3)));
  Alcotest.(check string) "result rows identical"
    (Json.write (Server.row_json s1 ~label:"t" ~wall_s:0.0))
    (Json.write (Server.row_json s3 ~label:"t" ~wall_s:0.0))

let test_server_batch_size_invariant () =
  let stream = Workload.generate ~seed:33 ~requests:80 mix4 in
  let run batch =
    let server = Server.create quiet_config in
    let r = Server.run ~batch server stream in
    (r, Server.summary server, Server.shard_statuses server)
  in
  check_bool "batch granularity never changes results" true (run 7 = run 64)

let test_server_forced_retirement () =
  let stream = Workload.generate ~seed:17 ~requests:120 mix4 in
  let n = List.length stream in
  let first = List.filteri (fun i _ -> i < n / 2) stream in
  let second = List.filteri (fun i _ -> i >= n / 2) stream in
  let server = Server.create quiet_config in
  ignore (Server.run server first);
  check_bool "force_retire succeeds on an active shard" true
    (Server.force_retire server 0);
  check_bool "retiring twice fails" false (Server.force_retire server 0);
  ignore (Server.run server second);
  let s = Server.summary server in
  check_int "forced retirement recorded" 1 s.Server.retired_shards;
  check_int "spare woke up" 1 s.Server.spare_activations;
  check_int "still zero incorrect" 0 s.Server.incorrect;
  check_int "still zero rejected" 0 s.Server.rejected;
  let statuses = Server.shard_statuses server in
  (match List.assoc_opt 0 (List.map (fun (i, st, w) -> (i, (st, w))) statuses) with
  | Some (Shard.Retired, _) -> ()
  | _ -> Alcotest.fail "shard 0 should be retired");
  (* the activated spare (highest id) absorbed second-half traffic *)
  let spare_id = quiet_config.Server.shards + quiet_config.Server.spare_shards - 1 in
  match List.find_opt (fun (i, _, _) -> i = spare_id) statuses with
  | Some (_, Shard.Active, writes) ->
    check_bool "spare shard absorbed traffic" true (writes > 0)
  | _ -> Alcotest.fail "spare shard should be active"

let test_server_organic_retirement () =
  (* endurance so low the shards wear out mid-stream: write-verify turns
     worn cells into detections, the dry spare pool retires shards, and
     the service keeps answering (correctly or with an explicit
     rejection) without ever crashing *)
  let cfg =
    { Server.default_config with
      Server.shards = 2;
      spare_shards = 2;
      cell_spares = 2;
      endurance = Some 300;
      seed = 29 }
  in
  let stream = Workload.generate ~seed:29 ~requests:150 mix4 in
  let server, responses = run_server cfg stream in
  let s = Server.summary server in
  check_bool "wear-out retired at least one shard" true (s.Server.retired_shards > 0);
  check_bool "verify detected the worn cells" true
    (s.Server.exec_stats.Plim_fault.Exec.detections > 0);
  check_int "answered everything" (List.length stream) (List.length responses);
  check_int "incorrect outputs never escape" 0 s.Server.incorrect;
  (* determinism must survive the retirement cascade too *)
  let _, responses3 = run_server ~jobs:3 cfg stream in
  check_bool "cascade identical at -j3" true (responses = responses3)

(* Each rejection reason, checked for its exact message, the response
   slot it answers, the summary counter and the serve.rejected metric. *)
let test_server_rejection_reasons () =
  let wp = List.hd mix4.Workload.programs in
  let compile =
    Workload.Compile { graph = wp.Workload.graph }
  in
  let width = Plim_mig.Mig.num_inputs wp.Workload.graph in
  let bytes = (width + 7) / 8 in
  let execute =
    Workload.Execute { digest = wp.Workload.digest; inputs = String.make bytes '\000' }
  in
  let expect_rejected what server requests ~index ~reason =
    let before = (Server.summary server).Server.rejected in
    let metric_before = Plim_obs.Metrics.get "serve.rejected" in
    let responses = Server.run server requests in
    List.iteri
      (fun i r ->
        match r with
        | Server.Rejected { digest; reason = got } when i = index ->
          Alcotest.(check string) (what ^ ": digest") wp.Workload.digest digest;
          Alcotest.(check string) (what ^ ": reason") reason got
        | Server.Rejected { reason; _ } ->
          Alcotest.failf "%s: slot %d rejected: %s" what i reason
        | _ when i = index -> Alcotest.failf "%s: slot %d not rejected" what i
        | _ -> ())
      responses;
    check_int (what ^ ": summary.rejected") (before + 1)
      (Server.summary server).Server.rejected;
    check_int (what ^ ": serve.rejected delta") 1
      (Plim_obs.Metrics.get "serve.rejected" - metric_before)
  in
  (* an input vector one byte too long for the program *)
  let server = Server.create quiet_config in
  let long =
    Workload.Execute
      { digest = wp.Workload.digest; inputs = String.make (bytes + 1) '\000' }
  in
  expect_rejected "wrong input width" server [ compile; long ] ~index:1
    ~reason:
      (Printf.sprintf "input vector has %d bytes, program has %d inputs (%d bytes)"
         (bytes + 1) width bytes);
  (* a program larger than the configured shard lines *)
  let cells =
    Plim_isa.Program.num_cells
      (Plim_core.Pipeline.compile quiet_config.Server.pipeline wp.Workload.graph)
        .Plim_core.Pipeline.program
  in
  let small = Server.create { quiet_config with Server.lines = 2 } in
  expect_rejected "too large" small [ compile; execute ] ~index:1
    ~reason:(Printf.sprintf "program needs %d lines, shards have 2" cells);
  (* every shard force-retired, the spare included *)
  let server = Server.create quiet_config in
  ignore (Server.run server [ compile; execute ]);
  let total = quiet_config.Server.shards + quiet_config.Server.spare_shards in
  for id = 0 to total - 1 do
    check_bool (Printf.sprintf "retire shard %d" id) true (Server.force_retire server id)
  done;
  expect_rejected "no active shards" server [ compile; execute ] ~index:1
    ~reason:"no active shards";
  (* no cell spares and a one-write endurance: every attempt runs its
     shard's spare pool dry, so the replay chain retires the whole fleet *)
  let cfg =
    { quiet_config with
      Server.shards = 2;
      spare_shards = 1;
      cell_spares = 0;
      endurance = Some 1 }
  in
  let server = Server.create cfg in
  expect_rejected "fleet out of shards" server [ compile; execute ] ~index:1
    ~reason:"fleet out of shards";
  let s = Server.summary server in
  check_int "re-runs: one per surviving shard" 2 s.Server.re_runs;
  check_int "every shard retired" 3 s.Server.retired_shards;
  check_int "the spare was woken" 1 s.Server.spare_activations;
  check_int "nothing executed" 0 s.Server.executes

(* The right bits reach the machine: crossbar wear does not depend on
   the data and [check] compares with a reference run fed the same
   vector, so each answer is compared with the source graph itself. *)
let served_outputs_match_mig =
  let server = lazy (Server.create quiet_config) in
  QCheck.Test.make ~count:6 ~name:"outputs = Mig.eval of the source"
    QCheck.small_nat
    (fun seed ->
      let mix = Lazy.force small_mix in
      let stream = Workload.generate ~seed ~requests:150 mix in
      let responses = Server.run (Lazy.force server) stream in
      List.iter2
        (fun req resp ->
          match (req, resp) with
          | Workload.Execute { digest; inputs }, Server.Executed { outputs; _ } ->
            let g = graph_of mix digest in
            let bits = unpack_exn ~width:(Plim_mig.Mig.num_inputs g) inputs in
            if Array.of_list (List.map snd outputs) <> Plim_mig.Mig.eval g bits then
              QCheck.Test.fail_reportf "%s: outputs differ from Mig.eval" digest
          | Workload.Execute { digest; _ }, _ ->
            QCheck.Test.fail_reportf "%s: execution not served" digest
          | Workload.Compile _, _ -> ())
        stream responses;
      true)

let test_row_json_shape () =
  let stream = Workload.generate ~seed:5 ~requests:30 mix4 in
  let server, _ = run_server quiet_config stream in
  let row = Json.write (Server.row_json server ~label:"unit" ~wall_s:0.0) in
  match Plim_telemetry.Json.parse row with
  | Error e -> Alcotest.failf "row_json does not parse: %s" e
  | Ok j ->
    let str k = Option.bind (Plim_telemetry.Json.member k j) Plim_telemetry.Json.to_string in
    let num k = Option.bind (Plim_telemetry.Json.member k j) Plim_telemetry.Json.to_float in
    Alcotest.(check (option string)) "schema" (Some "plim-serve/v1") (str "schema");
    Alcotest.(check (option string)) "label" (Some "unit") (str "label");
    check_bool "latency object present" true
      (Option.is_some (Plim_telemetry.Json.member "latency" j));
    check_bool "fleet object present" true
      (Option.is_some (Plim_telemetry.Json.member "fleet" j));
    Alcotest.(check (option (float 0.0))) "deterministic wall zeroed" (Some 0.0)
      (num "requests_per_sec")

let test_fleet_heatmap_json () =
  let stream = Workload.generate ~seed:5 ~requests:30 mix4 in
  let server, _ = run_server quiet_config stream in
  match Plim_telemetry.Json.parse (Json.write (Server.fleet_heatmap_json server)) with
  | Error e -> Alcotest.failf "heatmap json does not parse: %s" e
  | Ok j ->
    (match Option.bind (Plim_telemetry.Json.member "shards" j) Plim_telemetry.Json.to_list with
    | Some shards ->
      check_int "one heatmap per shard"
        (quiet_config.Server.shards + quiet_config.Server.spare_shards)
        (List.length shards)
    | None -> Alcotest.fail "no shards array")

let () =
  Alcotest.run "serve"
    [ ( "workload",
        [ Alcotest.test_case "zipf mass" `Quick test_zipf_mass;
          Alcotest.test_case "zipf chi-square" `Quick test_zipf_chi_square;
          Alcotest.test_case "seed determinism" `Quick test_generate_deterministic;
          Alcotest.test_case "warm-up compiles first" `Quick test_generate_warmup_first;
          Alcotest.test_case "hot/cold input skew" `Quick test_hot_cold_skew;
          Alcotest.test_case "hot vectors are shared strings" `Quick
            test_generate_shares_hot_vectors;
          Alcotest.test_case "stream pinned at seed 1" `Quick test_generate_pinned;
          Alcotest.test_case "unpack layout" `Quick test_unpack;
          Alcotest.test_case "stream words per request" `Quick test_stream_words ] );
      ( "cache",
        [ Alcotest.test_case "digest stability" `Quick test_cache_digest_stability;
          Alcotest.test_case "small-suite digest pins" `Quick test_cache_digest_pins ] );
      ( "server",
        [ Alcotest.test_case "end to end" `Quick test_server_end_to_end;
          Alcotest.test_case "warm replay hits" `Quick test_server_warmup_then_hits;
          Alcotest.test_case "unknown digest" `Quick test_server_unknown_digest_rejected;
          Alcotest.test_case "placement balance" `Quick test_server_placement_balance;
          Alcotest.test_case "-j1 == -j3" `Quick test_server_jobs_identical;
          Alcotest.test_case "batch-size invariant" `Quick test_server_batch_size_invariant;
          Alcotest.test_case "forced retirement" `Quick test_server_forced_retirement;
          Alcotest.test_case "organic retirement" `Quick test_server_organic_retirement;
          Alcotest.test_case "rejection reasons" `Quick test_server_rejection_reasons;
          QCheck_alcotest.to_alcotest served_outputs_match_mig;
          Alcotest.test_case "row json" `Quick test_row_json_shape;
          Alcotest.test_case "fleet heatmaps" `Quick test_fleet_heatmap_json ] ) ]
