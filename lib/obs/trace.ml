type arg = Int of int | Bool of bool | String of string

type event = {
  ts : float;
  name : string;
  args : (string * arg) list;
}

type sink =
  | Null
  | Memory of event Queue.t
  | Jsonl of out_channel

let current = ref Null

let enabled () = match !current with Null -> false | _ -> true

let add_json_float b f =
  (* JSON has no nan/inf; %.17g round-trips every other float *)
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
  else Buffer.add_string b "null"

let event_to_json e =
  let b = Buffer.create 96 in
  Buffer.add_string b "{\"ts\":";
  add_json_float b e.ts;
  Buffer.add_string b ",\"name\":\"";
  Plim_util.Jsonx.escape_into b e.name;
  Buffer.add_char b '"';
  List.iter
    (fun (k, v) ->
      Buffer.add_string b ",\"";
      Plim_util.Jsonx.escape_into b k;
      Buffer.add_string b "\":";
      match v with
      | Int i -> Buffer.add_string b (string_of_int i)
      | Bool v -> Buffer.add_string b (if v then "true" else "false")
      | String s ->
        Buffer.add_char b '"';
        Plim_util.Jsonx.escape_into b s;
        Buffer.add_char b '"')
    e.args;
  Buffer.add_char b '}';
  Buffer.contents b

(* Serializes sink writes: events may be emitted from pool domains
   (Plim_par tasks), and neither Queue.add nor channel output is
   domain-safe.  Null-sink emits stay lock-free. *)
let emit_lock = Mutex.create ()

let emit ?(args = []) name =
  match !current with
  | Null -> ()
  | s ->
    let e = { ts = Clock.now (); name; args } in
    Mutex.lock emit_lock;
    (match s with
    | Null -> ()
    | Memory q -> Queue.add e q
    | Jsonl oc ->
      output_string oc (event_to_json e);
      output_char oc '\n');
    Mutex.unlock emit_lock

let with_sink s f =
  let previous = !current in
  current := s;
  Fun.protect ~finally:(fun () -> current := previous) f

let with_memory f =
  let q = Queue.create () in
  let result = with_sink (Memory q) f in
  (result, List.of_seq (Queue.to_seq q))

let with_jsonl path f =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> with_sink (Jsonl oc) f)
