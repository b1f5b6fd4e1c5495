module Hgram = Plim_telemetry.Histogram
module Json = Plim_telemetry.Json

type counter = { c_name : string; count : int Atomic.t }
type gauge = { g_name : string; mutable level : float }
type histogram = { h_name : string; hist : Hgram.t }

(* The registry is append-mostly and consulted only at registration and
   snapshot time; hot paths hold the [counter] record directly.  Counter
   bumps are atomic so tasks running on pool domains (Plim_par) can share
   a counter: the final total is the sum of all increments regardless of
   interleaving, which keeps metric snapshots deterministic under -j N.
   The registry itself and gauge levels are guarded by [lock]. *)
let lock = Mutex.create ()
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let counter name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; count = Atomic.make 0 } in
    Hashtbl.replace counters name c;
    c

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: negative increment";
  ignore (Atomic.fetch_and_add c.count by)

let value c = Atomic.get c.count

let gauge name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; level = 0.0 } in
    Hashtbl.replace gauges name g;
    g

let set_gauge g v = with_lock @@ fun () -> g.level <- v

let add_gauge g d = with_lock @@ fun () -> g.level <- g.level +. d

let get name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt counters name with Some c -> Atomic.get c.count | None -> 0

(* Histogram observations take the registry lock: unlike counter bumps
   they touch several fields of a shared structure, and their hot paths
   (phase latencies, snapshot-time wear grids) fire orders of magnitude
   less often than counters. *)
let histogram name =
  with_lock @@ fun () ->
  match Hashtbl.find_opt histograms name with
  | Some h -> h
  | None ->
    let h = { h_name = name; hist = Hgram.create () } in
    Hashtbl.replace histograms name h;
    h

let observe h v = with_lock @@ fun () -> Hgram.observe h.hist v

let observe_array h xs =
  with_lock @@ fun () -> Array.iter (fun v -> Hgram.observe h.hist v) xs

let histogram_value h = with_lock @@ fun () -> Hgram.copy h.hist

type value = Counter of int | Gauge of float | Hist of Hgram.t

let snapshot () =
  with_lock @@ fun () ->
  let entries =
    Hashtbl.fold (fun name c acc -> (name, Counter (Atomic.get c.count)) :: acc)
      counters []
  in
  let entries =
    Hashtbl.fold (fun name g acc -> (name, Gauge g.level) :: acc) gauges entries
  in
  let entries =
    Hashtbl.fold (fun name h acc -> (name, Hist (Hgram.copy h.hist)) :: acc)
      histograms entries
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) entries

let reset () =
  with_lock @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) counters;
  Hashtbl.iter (fun _ g -> g.level <- 0.0) gauges;
  Hashtbl.iter (fun _ h -> Hgram.clear h.hist) histograms

let pp_snapshot ppf entries =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter c -> Format.fprintf ppf "%-28s %d@." name c
      | Gauge g -> Format.fprintf ppf "%-28s %g@." name g
      | Hist h -> Format.fprintf ppf "%-28s %a@." name Hgram.pp h)
    entries

(* The single JSON exposition path: counters, gauges and histograms in
   one sorted document. *)
let to_json () =
  let value = function
    | Counter c -> Json.Int c
    | Gauge g -> Num g
    | Hist h -> Hgram.to_json h
  in
  Json.Obj
    [ ("schema", Str "plim-metrics/v1");
      ("metrics", Obj (List.map (fun (name, v) -> (name, value v)) (snapshot ()))) ]
