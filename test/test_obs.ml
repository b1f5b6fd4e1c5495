(* Observability layer: metrics counters, trace sinks, profiling spans —
   and the invariant that none of it perturbs compilation. *)

module Clock = Plim_obs.Clock
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace
module Profile = Plim_obs.Profile
module Pipeline = Plim_core.Pipeline
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats
module Suite = Plim_benchgen.Suite
module Controller = Plim_machine.Plim_controller

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* --- a minimal JSON well-formedness checker --------------------------- *)

exception Bad_json of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some x when x = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal w =
    String.iter (fun c -> expect c) w
  in
  let string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> fail "bad \\u escape"
          done
        | _ -> fail "bad escape");
        go ()
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  let number () =
    (match peek () with Some '-' -> advance () | _ -> ());
    let digits () =
      let start = !pos in
      let rec go () =
        match peek () with Some '0' .. '9' -> advance (); go () | _ -> ()
      in
      go ();
      if !pos = start then fail "expected digits"
    in
    digits ();
    (match peek () with
    | Some '.' ->
      advance ();
      digits ()
    | _ -> ());
    match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ()
  in
  let rec value () =
    skip_ws ();
    (match peek () with
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> fail "expected , or }"
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> fail "expected , or ]"
        in
        elements ()
      end
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') -> number ()
    | _ -> fail "unexpected token");
    skip_ws ()
  in
  value ();
  if !pos <> n then fail "trailing garbage"

let check_valid_json what s =
  match parse_json s with
  | () -> ()
  | exception Bad_json msg ->
    Alcotest.failf "%s: invalid JSON (%s): %s" what msg
      (if String.length s > 200 then String.sub s 0 200 ^ "…" else s)

(* --- metrics ---------------------------------------------------------- *)

let test_metrics_basics () =
  let c = Metrics.counter "test.some_counter" in
  let before = Metrics.get "test.some_counter" in
  Metrics.incr c;
  Metrics.incr ~by:4 c;
  check_int "incremented" (before + 5) (Metrics.get "test.some_counter");
  Metrics.incr (Metrics.counter "test.some_counter");
  check_int "same name, same counter" (before + 6) (Metrics.get "test.some_counter");
  check_int "unknown name is 0" 0 (Metrics.get "test.no_such_counter");
  let g = Metrics.gauge "test.some_gauge" in
  Metrics.set_gauge g 2.5;
  let snap = Metrics.snapshot () in
  check_bool "counter in snapshot" true
    (List.mem_assoc "test.some_counter" snap);
  check_bool "gauge in snapshot" true
    (match List.assoc_opt "test.some_gauge" snap with
    | Some (Metrics.Gauge v) -> v = 2.5
    | _ -> false);
  let names = List.map fst snap in
  check_bool "snapshot sorted" true (List.sort String.compare names = names);
  Metrics.reset ();
  check_int "reset zeroes" 0 (Metrics.get "test.some_counter")

(* --- counters across a small compile ---------------------------------- *)

let compile_adder8 () =
  let g = Suite.build_cached (Suite.find "adder8") in
  Pipeline.compile Pipeline.endurance_full g

let test_compile_counters () =
  Metrics.reset ();
  let r = compile_adder8 () in
  let p = r.Pipeline.program in
  let s = r.Pipeline.write_summary in
  check_int "alloc.writes = write_summary.total" s.Stats.total (Metrics.get "alloc.writes");
  check_int "alloc.fresh_cells = #R" (Program.num_cells p) (Metrics.get "alloc.fresh_cells");
  check_int "translate.instrs = #I" (Program.length p) (Metrics.get "translate.instrs");
  check_int "requests split into fresh + pool hits"
    (Metrics.get "alloc.requests")
    (Metrics.get "alloc.fresh_cells" + Metrics.get "alloc.pool_hits");
  check_bool "rewriting happened" true (Metrics.get "rewrite.passes" > 0);
  check_int "five effort cycles" 5 (Metrics.get "rewrite.cycles");
  check_bool "selection popped every node" true (Metrics.get "select.pops" > 0);
  (* executing the program performs exactly one crossbar write per
     instruction and one peripheral load per PI *)
  let before_writes = Metrics.get "crossbar.writes" in
  check_int "no crossbar writes during compilation" 0 before_writes;
  let inputs =
    Array.to_list (Array.map (fun (n, _) -> (n, false)) p.Program.pi_cells)
  in
  let _, _, _ = Controller.run p ~inputs in
  check_int "crossbar.writes after one run = write_summary.total" s.Stats.total
    (Metrics.get "crossbar.writes");
  check_int "crossbar.loads = #PI" (Array.length p.Program.pi_cells)
    (Metrics.get "crossbar.loads");
  check_int "machine.runs" 1 (Metrics.get "machine.runs")

let test_cap_retires_counted () =
  Metrics.reset ();
  let g = Suite.build_cached (Suite.find "adder8") in
  let _ = Pipeline.compile (Pipeline.with_cap 10 Pipeline.endurance_full) g in
  check_bool "capped compile retires devices" true
    (Metrics.get "alloc.retired_cells" > 0)

(* --- trace sinks ------------------------------------------------------- *)

let test_memory_sink_event_order () =
  let (r : Pipeline.result), events =
    Trace.with_memory (fun () -> compile_adder8 ())
  in
  check_bool "sink restored" false (Trace.enabled ());
  check_bool "captured events" true (List.length events > 0);
  let names = List.map (fun e -> e.Trace.name) events in
  List.iter
    (fun n ->
      check_bool (Printf.sprintf "known event name %s" n) true
        (List.mem n
           [ "rewrite.pass"; "alloc.fresh"; "alloc.request"; "alloc.release";
             "alloc.retire"; "alloc.write"; "translate.rm3" ]))
    names;
  let index_of name =
    let rec go i = function
      | [] -> -1
      | n :: _ when n = name -> i
      | _ :: tl -> go (i + 1) tl
    in
    go 0 names
  in
  (* rewriting precedes allocation, allocation precedes the first write *)
  check_bool "rewrite first" true (index_of "rewrite.pass" < index_of "alloc.fresh");
  check_bool "allocate before write" true (index_of "alloc.fresh" < index_of "alloc.write");
  check_bool "releases captured" true (index_of "alloc.release" >= 0);
  (* every alloc.write targets a previously allocated cell *)
  let allocated = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let cell () =
        match List.assoc_opt "cell" e.Trace.args with
        | Some (Trace.Int c) -> c
        | _ -> Alcotest.fail "event without cell arg"
      in
      match e.Trace.name with
      | "alloc.fresh" -> Hashtbl.replace allocated (cell ()) ()
      | "alloc.write" | "alloc.release" | "alloc.retire" ->
        check_bool "write/release after allocate" true (Hashtbl.mem allocated (cell ()))
      | _ -> ())
    events;
  (* static write events agree with the summary *)
  let writes =
    List.length (List.filter (fun e -> e.Trace.name = "alloc.write") events)
  in
  check_int "alloc.write events = total writes" r.Pipeline.write_summary.Stats.total
    writes

let test_null_sink_identical () =
  (* observability must be free: the Null-sink compile and a compile under
     an active Memory sink produce bit-identical artefacts *)
  check_bool "Null sink installed" false (Trace.enabled ());
  let r0 = compile_adder8 () in
  let r1, _ = Trace.with_memory (fun () -> compile_adder8 ()) in
  check_bool "programs identical" true (r0.Pipeline.program = r1.Pipeline.program);
  check_bool "summaries identical" true
    (r0.Pipeline.write_summary = r1.Pipeline.write_summary)

let test_jsonl_sink () =
  let path = Filename.temp_file "plim_obs" ".jsonl" in
  Trace.with_jsonl path (fun () ->
      Trace.emit "test.event"
        ~args:
          [ ("i", Trace.Int 42); ("b", Trace.Bool true);
            ("s", Trace.String "with \"quotes\" and\nnewline") ];
      Trace.emit "test.bare");
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Sys.remove path;
  check_int "two lines" 2 (List.length lines);
  List.iter (check_valid_json "jsonl line") lines;
  check_bool "named" true
    (String.length (List.hd lines) > 0
    && contains ~affix:"\"name\":\"test.event\"" (List.hd lines))

(* --- profiling spans --------------------------------------------------- *)

let test_span_nesting_and_chrome_json () =
  (* deterministic fake clock: each call advances 1ms *)
  let t = ref 0.0 in
  Clock.set (fun () ->
      t := !t +. 0.001;
      !t);
  Profile.reset ();
  Profile.enable ();
  let result =
    Profile.span "outer" (fun () ->
        ignore (Profile.span "inner1" (fun () -> 1));
        ignore (Profile.span "inner2" (fun () -> 2));
        "done")
  in
  Profile.disable ();
  Clock.reset ();
  Alcotest.(check string) "span is transparent" "done" result;
  let spans = Profile.spans () in
  check_int "three spans" 3 (List.length spans);
  let find name = List.find (fun s -> s.Profile.name = name) spans in
  let outer = find "outer" and i1 = find "inner1" and i2 = find "inner2" in
  check_int "outer depth" 0 outer.Profile.depth;
  check_int "inner depth" 1 i1.Profile.depth;
  let inside (s : Profile.span) =
    s.Profile.start >= outer.Profile.start
    && s.Profile.start +. s.Profile.duration
       <= outer.Profile.start +. outer.Profile.duration
  in
  check_bool "inner1 nested inside outer" true (inside i1);
  check_bool "inner2 nested inside outer" true (inside i2);
  check_bool "inner1 before inner2" true (i1.Profile.start < i2.Profile.start);
  let json = Profile.to_chrome_json () in
  check_valid_json "chrome trace" json;
  check_bool "has traceEvents" true
    (contains ~affix:"\"traceEvents\"" json);
  check_bool "complete events" true (contains ~affix:"\"ph\":\"X\"" json);
  check_bool "span name present" true
    (contains ~affix:"\"name\":\"inner1\"" json);
  Profile.reset ()

let test_span_disabled_is_transparent () =
  Profile.reset ();
  check_int "result" 7 (Profile.span "nothing" (fun () -> 7));
  check_int "no span recorded" 0 (List.length (Profile.spans ()))

let test_span_records_on_exception () =
  Profile.reset ();
  Profile.enable ();
  (try Profile.span "raiser" (fun () -> failwith "boom") with Failure _ -> ());
  ignore (Profile.span "after" (fun () -> ()));
  Profile.disable ();
  let spans = Profile.spans () in
  check_int "both spans recorded" 2 (List.length spans);
  check_int "depth restored after raise" 0
    (List.find (fun s -> s.Profile.name = "after") spans).Profile.depth;
  Profile.reset ()

let test_totals_sorted_by_name () =
  Profile.reset ();
  Profile.enable ();
  (* record in an order that differs from both alphabetic and by-time so a
     regression to either ordering fails: "zeta" is slowest, recorded
     first *)
  ignore (Profile.span "zeta" (fun () -> Unix.sleepf 0.002));
  ignore (Profile.span "alpha" (fun () -> ()));
  ignore (Profile.span "mid" (fun () -> ()));
  ignore (Profile.span "alpha" (fun () -> ()));
  Profile.disable ();
  let names = List.map fst (Profile.totals ()) in
  Alcotest.(check (list string))
    "totals sorted by name, duplicates merged" [ "alpha"; "mid"; "zeta" ] names;
  let calls, _ = List.assoc "alpha" (Profile.totals ()) in
  check_int "alpha merged calls" 2 calls;
  Profile.reset ()

(* every finished span feeds its name's profile.<name> histogram, in
   microseconds, before and after a metrics reset *)
let test_span_histograms () =
  let t = ref 0.0 in
  Clock.set (fun () ->
      t := !t +. 0.001;
      !t);
  let hist name =
    match List.assoc_opt ("profile." ^ name) (Metrics.snapshot ()) with
    | Some (Metrics.Hist h) -> h
    | _ -> Alcotest.failf "no profile.%s histogram" name
  in
  Profile.reset ();
  Metrics.reset ();
  Profile.enable ();
  ignore (Profile.span "hist.a" (fun () -> ()));
  ignore (Profile.span "hist.a" (fun () -> ignore (Clock.now ())));
  ignore (Profile.span "hist.b" (fun () -> ()));
  let h = hist "hist.a" in
  check_int "a: two spans" 2 (Plim_telemetry.Histogram.count h);
  check_int "a: 1 ms + 2 ms" 3000 (Plim_telemetry.Histogram.sum h);
  check_int "b: one span" 1 (Plim_telemetry.Histogram.count (hist "hist.b"));
  Metrics.reset ();
  ignore (Profile.span "hist.a" (fun () -> ()));
  Profile.disable ();
  Clock.reset ();
  check_int "a after a reset" 1 (Plim_telemetry.Histogram.count (hist "hist.a"));
  Profile.reset ()

let () =
  Alcotest.run "obs"
    [ ( "metrics",
        [ Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "compile counters" `Quick test_compile_counters;
          Alcotest.test_case "cap retires counted" `Quick test_cap_retires_counted ] );
      ( "trace",
        [ Alcotest.test_case "memory sink order" `Quick test_memory_sink_event_order;
          Alcotest.test_case "null sink identical" `Quick test_null_sink_identical;
          Alcotest.test_case "jsonl sink" `Quick test_jsonl_sink ] );
      ( "profile",
        [ Alcotest.test_case "nesting + chrome json" `Quick
            test_span_nesting_and_chrome_json;
          Alcotest.test_case "disabled transparent" `Quick
            test_span_disabled_is_transparent;
          Alcotest.test_case "records on exception" `Quick
            test_span_records_on_exception;
          Alcotest.test_case "totals sorted by name" `Quick
            test_totals_sorted_by_name;
          Alcotest.test_case "latency histograms" `Quick test_span_histograms ] ) ]
