module Mig = Plim_mig.Mig
module Mig_io = Plim_mig.Mig_io
module Pipeline = Plim_core.Pipeline
module Metrics = Plim_obs.Metrics

type t = {
  table : (string, Pipeline.result) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let m_hits = Metrics.counter "serve.cache_hits"
let m_misses = Metrics.counter "serve.cache_misses"

let digest_of = Mig_io.digest

let create () = { table = Hashtbl.create 64; hits = 0; misses = 0 }

let find t digest = Hashtbl.find_opt t.table digest

let hit t digest =
  match Hashtbl.find_opt t.table digest with
  | Some _ as e ->
    t.hits <- t.hits + 1;
    Metrics.incr m_hits;
    e
  | None ->
    t.misses <- t.misses + 1;
    Metrics.incr m_misses;
    None

let record_hit t =
  t.hits <- t.hits + 1;
  Metrics.incr m_hits

let record_miss t =
  t.misses <- t.misses + 1;
  Metrics.incr m_misses

let add t ~digest result =
  if not (Hashtbl.mem t.table digest) then Hashtbl.replace t.table digest result

let hits t = t.hits
let misses t = t.misses

let entries t =
  Hashtbl.fold (fun d e acc -> (d, e) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
