(* bench/compare.exe — the perf-regression gate over plim-bench result
   files.

     dune exec bench/compare.exe -- BASELINE.json CURRENT.json \
       [--threshold PCT] [--min-abs X] [--json FILE] [--verbose]

   Exit status: 0 when no tracked metric regressed, 1 on regression, 2
   on usage or parse errors.  Two identical files always exit 0 — the
   CI perf-gate invariant.  Accepts plim-bench/v1 and /v2 in either
   position; only metrics present in both files are compared. *)

module Report = Plim_telemetry.Report

let usage () =
  prerr_endline
    "usage: compare.exe BASELINE.json CURRENT.json [--threshold PCT]\n\
    \                   [--min-abs X] [--json FILE] [--verbose]\n\
     --threshold PCT  relative growth a metric must exceed to gate (default 2.0)\n\
     --min-abs X      absolute growth floor (default 1e-9; identical values\n\
    \                 never gate)\n\
     --json FILE      additionally write the plim-report/v1 document to FILE\n\
     --verbose        list every improvement, not just the top 10";
  exit 2

let () =
  let threshold = ref 2.0 in
  let min_abs = ref 1e-9 in
  let json_out = ref None in
  let verbose = ref false in
  let files = ref [] in
  (* a nan, infinite or negative gate would silently switch the gate off *)
  let gate_float flag v =
    match float_of_string_opt v with
    | Some x when Float.is_finite x && x >= 0.0 -> x
    | _ ->
      Printf.eprintf "compare: %s %S is not a finite number >= 0\n" flag v;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--threshold" :: v :: rest ->
      threshold := gate_float "--threshold" v;
      parse rest
    | "--min-abs" :: v :: rest ->
      min_abs := gate_float "--min-abs" v;
      parse rest
    | "--json" :: path :: rest ->
      json_out := Some path;
      parse rest
    | "--verbose" :: rest ->
      verbose := true;
      parse rest
    | a :: _ when String.length a > 0 && a.[0] = '-' -> usage ()
    | a :: rest ->
      files := a :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  match List.rev !files with
  | [ baseline; current ] -> (
    match
      Report.compare_files ~threshold_pct:!threshold ~min_abs:!min_abs ~baseline
        ~current ()
    with
    | Error e ->
      Printf.eprintf "compare: %s\n" e;
      exit 2
    | Ok c ->
      print_string (Report.render ~verbose:!verbose c);
      (match !json_out with
      | Some path ->
        let oc = open_out path in
        output_string oc (Plim_telemetry.Json.write (Report.to_json c));
        output_char oc '\n';
        close_out oc;
        Printf.eprintf "wrote %s\n%!" path
      | None -> ());
      exit (if Report.has_regressions c then 1 else 0))
  | _ -> usage ()
