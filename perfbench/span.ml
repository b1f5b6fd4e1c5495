(* In-memory span recorder for the traced benchmark run.

   Spans are recorded by the benchmark around its calls into the library,
   never inside it.  Each span knows its parent (the enclosing span on the
   same domain), the timed pass it belongs to and, for the serve workload,
   the batch.  Recording is off unless [enable] was called; [with_] then
   costs one branch. *)

type t = {
  id : int;
  name : string;
  parent : int;   (* -1 for a root span *)
  pass : int;     (* -1 during set-up *)
  batch : int;    (* -1 outside a serve batch *)
  domain : int;
  start : float;
  stop : float;
}

let on = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = Atomic.make 0
let current_pass = Atomic.make (-1)

(* Per-domain stack of open spans: (id, batch). *)
let stack_key : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let enable () = on := true
let disable () = on := false
let set_pass p = Atomic.set current_pass p

let with_ ?batch name f =
  if not !on then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let parent, inherited =
      match !stack with (p, b) :: _ -> (p, b) | [] -> (-1, -1)
    in
    let batch = Option.value batch ~default:inherited in
    let id = Atomic.fetch_and_add next_id 1 in
    let pass = Atomic.get current_pass in
    let start = Unix.gettimeofday () in
    stack := (id, batch) :: !stack;
    let finish () =
      let stop = Unix.gettimeofday () in
      stack := List.tl !stack;
      let s =
        { id; name; parent; pass; batch;
          domain = (Domain.self () :> int); start; stop }
      in
      Mutex.lock lock;
      recorded := s :: !recorded;
      Mutex.unlock lock
    in
    Fun.protect ~finally:finish f
  end

let spans () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

(* Total length of the union of [intervals], each clipped to [lo, hi]. *)
let covered lo hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   covered by its direct children. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
           :: Option.value (Hashtbl.find_opt children s.parent) ~default:[]))
    spans;
  List.map
    (fun s ->
      let kids = Option.value (Hashtbl.find_opt children s.id) ~default:[] in
      (s, s.stop -. s.start -. covered s.start s.stop kids))
    spans

type layer = { calls : int; busy : float; self : float }

(* Per-name totals over the spans of the given passes, sorted by name. *)
let layers ~passes spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if List.mem s.pass passes then begin
        let l =
          Option.value (Hashtbl.find_opt tbl s.name)
            ~default:{ calls = 0; busy = 0.0; self = 0.0 }
        in
        Hashtbl.replace tbl s.name
          { calls = l.calls + 1;
            busy = l.busy +. (s.stop -. s.start);
            self = l.self +. self }
      end)
    (self_times spans);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Chrome trace_event document: benchmark spans on one thread per domain,
   library Profile spans (which carry no domain) on a separate thread. *)
let chrome_json ~lib spans =
  let b = Buffer.create 65536 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let sep () = if !first then first := false else Buffer.add_string b ",\n" in
  List.iter
    (fun s ->
      sep ();
      Printf.bprintf b
        "{\"name\":%s,\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
         \"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"pass\":%d,\"batch\":%d}}"
        (Plim_util.Jsonx.quote s.name) (s.start *. 1e6)
        ((s.stop -. s.start) *. 1e6) s.domain s.id s.parent s.pass s.batch)
    spans;
  List.iter
    (fun (p : Plim_obs.Profile.span) ->
      sep ();
      Printf.bprintf b
        "{\"name\":%s,\"cat\":\"lib\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\
         \"pid\":1,\"tid\":1000,\"args\":{\"depth\":%d}}"
        (Plim_util.Jsonx.quote p.name) (p.start *. 1e6) (p.duration *. 1e6)
        p.depth)
    lib;
  Buffer.add_string b "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents b
