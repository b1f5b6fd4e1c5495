(* Deterministic multicore execution: a fixed-size OCaml 5 domain pool with
   a map API whose results are merged in *submission order* regardless of
   completion order.

   Determinism contract:
   - [map] returns exactly [List.map f xs] whenever every [f x] is a pure
     function of [x]: results land in a per-call array slot indexed by
     submission position, so scheduling never reorders them.
   - With [jobs = 1] no domain is ever spawned and [map] *is*
     [List.map f xs] — byte-identical to the sequential program, including
     side-effect order.  This is the baseline the [-j N] identity checks
     compare against.
   - An exception inside a task is captured; after the whole batch joins,
     the exception of the *lowest* failing index is re-raised, so the
     observed failure is the one sequential execution would have hit first.

   Scheduling: [jobs - 1] worker domains drain a shared FIFO; the submitter
   of a batch participates too ("helping join"), executing queued tasks
   while its own batch is unfinished.  A nested [map] issued from inside a
   task therefore cannot deadlock: the blocked parent drains the queue its
   children sit in.  Tasks executed by a worker domain rather than their
   submitter are counted as stolen. *)

module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics

let m_queued = Metrics.counter "par.tasks_queued"
let m_stolen = Metrics.counter "par.tasks_stolen"
let m_inline = Metrics.counter "par.tasks_inline"
let g_running = Metrics.gauge "par.tasks_running"
let g_jobs = Metrics.gauge "par.pool_jobs"

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable running : int;  (* tasks currently executing, all domains *)
  mutable live : bool;
  mutable domains : unit Domain.t list;
}

let default_jobs () = Domain.recommended_domain_count ()

let jobs t = t.jobs

let note_start t =
  t.running <- t.running + 1;
  Metrics.set_gauge g_running (float_of_int t.running)

let note_stop t =
  t.running <- t.running - 1;
  Metrics.set_gauge g_running (float_of_int t.running)

(* Worker domains block on [work_available] until a task is queued or the
   pool shuts down; the queue drains even mid-shutdown so no batch is ever
   abandoned with [pending > 0]. *)
let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    let rec take () =
      match Queue.take_opt t.queue with
      | Some task ->
        note_start t;
        Mutex.unlock t.mutex;
        Some task
      | None ->
        if not t.live then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          Condition.wait t.work_available t.mutex;
          take ()
        end
    in
    match take () with
    | Some task ->
      Metrics.incr m_stolen;
      task ();
      Mutex.lock t.mutex;
      note_stop t;
      Mutex.unlock t.mutex;
      loop ()
    | None -> ()
  in
  loop ()

let create ?jobs () =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Plim_par.create: jobs must be >= 1";
  Metrics.set_gauge g_jobs (float_of_int jobs);
  let t =
    { jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      running = 0;
      live = true;
      domains = [] }
  in
  (* the submitting domain participates in every join, so jobs = N needs
     only N - 1 dedicated workers *)
  t.domains <- List.init (jobs - 1) (fun _ -> Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  let was_live = t.live in
  t.live <- false;
  Condition.broadcast t.work_available;
  Mutex.unlock t.mutex;
  if was_live then begin
    List.iter Domain.join t.domains;
    t.domains <- []
  end

let with_pool ?jobs f =
  let t = create ?jobs () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)

type batch = { mutable pending : int; finished : Condition.t }

let check_live t =
  Mutex.lock t.mutex;
  let live = t.live in
  Mutex.unlock t.mutex;
  if not live then invalid_arg "Plim_par.map: pool is shut down"

let mapi t ~f xs =
  check_live t;
  Profile.span "par.map" @@ fun () ->
  match xs with
  | [] -> []
  | [ x ] -> [ f 0 x ]
  | xs when t.jobs <= 1 -> List.mapi f xs
  | xs ->
    let n = List.length xs in
    let results = Array.make n None in
    let exns = Array.make n None in
    let batch = { pending = n; finished = Condition.create () } in
    Mutex.lock t.mutex;
    if not t.live then begin
      Mutex.unlock t.mutex;
      invalid_arg "Plim_par.map: pool is shut down"
    end;
    List.iteri
      (fun i x ->
        Queue.add
          (fun () ->
            (match f i x with
            | v -> results.(i) <- Some v
            | exception e -> exns.(i) <- Some e);
            Mutex.lock t.mutex;
            batch.pending <- batch.pending - 1;
            if batch.pending = 0 then Condition.broadcast batch.finished;
            Mutex.unlock t.mutex)
          t.queue)
      xs;
    Metrics.incr ~by:n m_queued;
    Condition.broadcast t.work_available;
    (* helping join: run queued tasks (of any batch) until ours completes;
       wait only while the queue is empty and our tasks run elsewhere *)
    let rec help () =
      if batch.pending > 0 then
        match Queue.take_opt t.queue with
        | Some task ->
          note_start t;
          Mutex.unlock t.mutex;
          Metrics.incr m_inline;
          task ();
          Mutex.lock t.mutex;
          note_stop t;
          help ()
        | None ->
          Condition.wait batch.finished t.mutex;
          help ()
    in
    help ();
    Mutex.unlock t.mutex;
    (* re-raise the lowest-index failure: the one sequential order hits *)
    Array.iteri (fun _ e -> match e with Some e -> raise e | None -> ()) exns;
    Array.to_list
      (Array.map
         (function
           | Some v -> v
           | None -> assert false (* pending = 0 and no exn implies a result *))
         results)

let map t ~f xs = mapi t ~f:(fun _ x -> f x) xs
