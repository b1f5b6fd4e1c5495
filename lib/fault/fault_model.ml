module Splitmix = Plim_util.Splitmix

type kind = Stuck_at_0 | Stuck_at_1

type spec = {
  sa0 : float;
  sa1 : float;
  transient : float;
  transient_growth : float;
  seed : int;
}

let none = { sa0 = 0.0; sa1 = 0.0; transient = 0.0; transient_growth = 0.0; seed = 0x5EED }

let validate s =
  let rate name v =
    if v < 0.0 || v > 1.0 || Float.is_nan v then
      invalid_arg (Printf.sprintf "Fault_model: %s must be in [0, 1]" name)
  in
  rate "sa0" s.sa0;
  rate "sa1" s.sa1;
  rate "transient" s.transient;
  if s.transient_growth < 0.0 || Float.is_nan s.transient_growth then
    invalid_arg "Fault_model: growth must be non-negative";
  if s.sa0 +. s.sa1 > 1.0 then invalid_arg "Fault_model: sa0 + sa1 must be <= 1";
  s

let make ?(sa0 = 0.0) ?(sa1 = 0.0) ?(transient = 0.0) ?(seed = none.seed) () =
  validate { none with sa0; sa1; transient; seed }

let to_string s =
  let parts = ref [] in
  let add k v = if v <> 0.0 then parts := Printf.sprintf "%s:%g" k v :: !parts in
  add "growth" s.transient_growth;
  add "transient" s.transient;
  add "sa1" s.sa1;
  add "sa0" s.sa0;
  let parts = if !parts = [] then [ "none" ] else !parts in
  String.concat "," (parts @ [ Printf.sprintf "seed:%d" s.seed ])

let pp ppf s = Format.pp_print_string ppf (to_string s)

let parse str =
  let parse_field spec field =
    match String.index_opt field ':' with
    | _ when String.trim field = "none" -> Ok spec
    | None -> Error (Printf.sprintf "fault spec: %S is not of the form key:value" field)
    | Some i ->
      let key = String.trim (String.sub field 0 i) in
      let v = String.trim (String.sub field (i + 1) (String.length field - i - 1)) in
      let float () =
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "fault spec: bad number %S for %s" v key)
      in
      (match key with
      | "sa0" -> Result.map (fun f -> { spec with sa0 = f }) (float ())
      | "sa1" -> Result.map (fun f -> { spec with sa1 = f }) (float ())
      | "transient" | "t" -> Result.map (fun f -> { spec with transient = f }) (float ())
      | "growth" -> Result.map (fun f -> { spec with transient_growth = f }) (float ())
      | "seed" ->
        (match int_of_string_opt v with
        | Some n -> Ok { spec with seed = n }
        | None -> Error (Printf.sprintf "fault spec: bad seed %S" v))
      | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key))
  in
  let fields = String.split_on_char ',' str |> List.filter (fun f -> String.trim f <> "") in
  let rec go spec = function
    | [] -> (try Ok (validate spec) with Invalid_argument m -> Error m)
    | f :: rest -> (match parse_field spec f with Ok s -> go s rest | Error _ as e -> e)
  in
  go none fields

(* One independent uniform stream per cell, derived from the spec seed by a
   golden-ratio mix so that neighbouring cells are uncorrelated. *)
let cell_rng s i = Splitmix.create (s.seed lxor ((i + 1) * 0x9E3779B97F4A7C1))

let cell_fault s i =
  let p = s.sa0 +. s.sa1 in
  if p <= 0.0 then None
  else begin
    let rng = cell_rng s i in
    let u = Splitmix.float rng in
    if u >= p then None
    else begin
      (* coupled thresholds: [u] decides faultiness, a second draw the kind,
         so scaling the rates preserves every existing fault *)
      let v = Splitmix.float rng in
      Some (if v *. p < s.sa0 then Stuck_at_0 else Stuck_at_1)
    end
  end

let sample_permanent s ~cells =
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1) (match cell_fault s i with Some k -> (i, k) :: acc | None -> acc)
  in
  go (cells - 1) []

(* This runs on every write pulse, so it compares the unboxed sum with the
   [bits53] draw behind [Splitmix.float] in place.  Leaving out the clamp
   changes no outcome: a draw is below 1, and a NaN or non-positive sum
   draws nothing either way. *)
let transient_fires s ~writes rng =
  let p = s.transient +. (s.transient_growth *. float_of_int writes) in
  p > 0.0 && float_of_int (Splitmix.bits53 rng) /. 9007199254740992.0 < p
