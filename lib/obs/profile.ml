type span = {
  name : string;
  start : float;
  duration : float;
  depth : int;
}

let on = ref false

(* Spans may finish on any pool domain (Plim_par tasks), so the record list
   is guarded by a mutex and the nesting depth is tracked per domain: a
   worker executing a stolen task starts its own depth-0 stack instead of
   extending the submitter's. *)
let lock = Mutex.create ()
let recorded : span list ref = ref []  (* completion order, reversed *)

(* span name -> its [profile.<name>] histogram, resolved on the name's
   first span; also guarded by [lock].  Metrics registrations survive
   [Metrics.reset], so an entry never goes stale. *)
let histograms : (string, Metrics.histogram) Hashtbl.t = Hashtbl.create 16

let histogram_of name =
  match Hashtbl.find histograms name with
  | h -> h
  | exception Not_found ->
    let h = Metrics.histogram ("profile." ^ name) in
    Hashtbl.add histograms name h;
    h
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let enable () = on := true
let disable () = on := false
let enabled () = !on

let span name f =
  if not !on then f ()
  else begin
    let start = Clock.now () in
    let current_depth = Domain.DLS.get depth_key in
    let depth = !current_depth in
    Stdlib.incr current_depth;
    let finish () =
      Stdlib.decr current_depth;
      let s = { name; start; duration = Clock.now () -. start; depth } in
      Mutex.lock lock;
      recorded := s :: !recorded;
      let h = histogram_of name in
      Mutex.unlock lock;
      (* Feed the per-phase latency distribution (microseconds).  These
         are wall-clock values: they belong in metrics expositions and
         never in deterministic bench output. *)
      Metrics.observe h (max 0 (int_of_float (s.duration *. 1e6)))
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let spans () =
  Mutex.lock lock;
  let l = !recorded in
  Mutex.unlock lock;
  List.rev l

let reset () =
  Mutex.lock lock;
  recorded := [];
  Mutex.unlock lock;
  Domain.DLS.get depth_key := 0

(* Sorted by name, not by accumulated time: wall-clock totals differ from
   run to run (and between -j levels), so a duration sort would make every
   report and the phases section of bench/results/latest.json
   order-nondeterministic.  Names make the dump byte-stable. *)
let totals () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let count, total =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0)
      in
      Hashtbl.replace tbl s.name (count + 1, total +. s.duration))
    (spans ());
  Hashtbl.fold (fun name acc l -> (name, acc) :: l) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_chrome_json () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b "\n{\"name\":\"";
      Plim_util.Jsonx.escape_into b s.name;
      Buffer.add_string b
        (Printf.sprintf "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1}"
           (s.start *. 1e6) (s.duration *. 1e6)))
    (spans ());
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents b

let pp_totals ppf entries =
  List.iter
    (fun (name, (count, total)) ->
      Format.fprintf ppf "%-32s %6d call%s %12.3f ms@." name count
        (if count = 1 then " " else "s")
        (total *. 1e3))
    entries
