module Program = Plim_isa.Program
module I = Plim_isa.Instruction
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics

type severity = Error | Warning | Info

type kind =
  | Use_before_def
  | Dead_write
  | Po_clobber
  | Rram_leak
  | Cap_exceeded
  | Unused_cell

type diagnostic = {
  severity : severity;
  kind : kind;
  instr : int option;
  cell : int;
  message : string;
}

type def = {
  cell : int;
  def_at : int;
  uses : int list;
  live_out : bool;
}

type storage = {
  total_span : int;
  max_span : int;
  mean_span : float;
  per_cell_span : int array;
}

type analysis = {
  diagnostics : diagnostic list;
  defs : def list;
  storage : storage;
  write_counts : int array;
}

let m_programs = Metrics.counter "analyze.programs"
let m_diagnostics = Metrics.counter "analyze.diagnostics"
let m_errors = Metrics.counter "analyze.errors"

let severity_name = function Error -> "error" | Warning -> "warning" | Info -> "info"

let kind_name = function
  | Use_before_def -> "use-before-def"
  | Dead_write -> "dead-write"
  | Po_clobber -> "po-clobber"
  | Rram_leak -> "rram-leak"
  | Cap_exceeded -> "cap-exceeded"
  | Unused_cell -> "unused-cell"

let pp_diagnostic ppf d =
  Format.fprintf ppf "%s: %s: %s: cell %%%d: %s"
    (match d.instr with Some i -> string_of_int i | None -> "-")
    (severity_name d.severity) (kind_name d.kind) d.cell d.message

let diagnostic_to_string d = Format.asprintf "%a" pp_diagnostic d

(* [RM3 a, b, z] computes [z <- <a, !b, z>]; the old value of [z] is read
   unless both operands are constants with [a <> b] (the two set_const
   encodings, whose majority is decided by the operands alone). *)
let reads_dest (instr : I.t) =
  match (instr.I.a, instr.I.b) with
  | I.Const a, I.Const b -> a = b
  | (I.Cell _ | I.Const _), (I.Cell _ | I.Const _) -> true

(* --- def-use IR -------------------------------------------------------- *)

(* One value held by a cell, mutable while chains are under construction.
   [s_uses] is kept newest-first.  A synthetic site is installed after a
   use-before-def report so later reads of the same cell chain quietly
   instead of cascading. *)
type site = {
  s_cell : int;
  s_def_at : int;
  mutable s_uses : int list;
  mutable s_live_out : bool;
  s_synthetic : bool;
}

let build (p : Program.t) =
  let n = p.Program.num_cells in
  let is_pi = Array.make n false in
  Array.iter (fun (_, c) -> is_pi.(c) <- true) p.Program.pi_cells;
  let last : site option array = Array.make n None in
  let sites = ref [] in
  let push s =
    sites := s :: !sites;
    s
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* PI loads happen before instruction 0, in declaration order: with two
     PIs bound to one cell (the compiler reuses the device of an unused
     input) the later load is the one that sticks. *)
  Array.iter
    (fun (_, c) ->
      last.(c) <-
        Some (push { s_cell = c; s_def_at = -1; s_uses = []; s_live_out = false;
                     s_synthetic = false }))
    p.Program.pi_cells;
  let reported = Array.make n false in
  Array.iteri
    (fun i (instr : I.t) ->
      let use c =
        match last.(c) with
        | Some s -> (
          match s.s_uses with
          | u :: _ when u = i -> () (* one use per instruction per value *)
          | _ -> s.s_uses <- i :: s.s_uses)
        | None ->
          if not reported.(c) then begin
            reported.(c) <- true;
            add
              { severity = Error; kind = Use_before_def; instr = Some i; cell = c;
                message =
                  Printf.sprintf
                    "cell %%%d is read but never written before (and is not a \
                     primary input)"
                    c }
          end;
          last.(c) <-
            Some (push { s_cell = c; s_def_at = -1; s_uses = [ i ];
                         s_live_out = false; s_synthetic = true })
      in
      (match instr.I.a with I.Cell c -> use c | I.Const _ -> ());
      (match instr.I.b with I.Cell c -> use c | I.Const _ -> ());
      if reads_dest instr then use instr.I.z;
      last.(instr.I.z) <-
        Some (push { s_cell = instr.I.z; s_def_at = i; s_uses = [];
                     s_live_out = false; s_synthetic = false }))
    p.Program.instrs;
  Array.iter
    (fun (name, c) ->
      match last.(c) with
      | Some s -> s.s_live_out <- true
      | None ->
        add
          { severity = Error; kind = Use_before_def; instr = None; cell = c;
            message =
              Printf.sprintf "output %S reads cell %%%d which nothing ever writes"
                name c })
    p.Program.po_cells;
  (List.rev !sites, !diags, is_pi)

let write_counts (p : Program.t) =
  let sites, _, _ = build p in
  let counts = Array.make p.Program.num_cells 0 in
  List.iter (fun s -> if s.s_def_at >= 0 then counts.(s.s_cell) <- counts.(s.s_cell) + 1) sites;
  counts

(* --- checkers ---------------------------------------------------------- *)

(* Within one node's instruction group the translator requests temporaries
   after a child's last read but releases children only at group end, so a
   fresh open up to one group (<= 7 instructions) past a death is normal
   scheduling, not a held device. *)
let default_leak_grace = 8

let analyze ?(leak_grace = default_leak_grace) ?max_writes (p : Program.t) =
  Profile.span "analyze.program" @@ fun () ->
  Metrics.incr m_programs;
  let sites, diags0, is_pi = build p in
  let n = p.Program.num_cells in
  let len = Program.length p in
  let diags = ref diags0 in
  let add d = diags := d :: !diags in
  let is_po = Array.make n false in
  Array.iter (fun (_, c) -> is_po.(c) <- true) p.Program.po_cells;
  (* chronological per-cell def chains *)
  let by_cell : site list array = Array.make n [] in
  List.iter (fun s -> by_cell.(s.s_cell) <- s :: by_cell.(s.s_cell)) sites;
  let chains = Array.map List.rev by_cell in
  (* dead writes and PO clobbers: an unread, overwritten (or trailing,
     non-live-out) value; on an output cell the overwriting instruction is
     the clobber *)
  Array.iteri
    (fun c chain ->
      let rec scan = function
        | [] -> ()
        | s :: rest ->
          if s.s_def_at >= 0 && s.s_uses = [] && not s.s_live_out then begin
            add
              { severity = Error; kind = Dead_write; instr = Some s.s_def_at;
                cell = c;
                message =
                  Printf.sprintf
                    "value written to cell %%%d is never read — wasted endurance"
                    c };
            if is_po.(c) then
              match rest with
              | next :: _ when next.s_def_at >= 0 ->
                add
                  { severity = Error; kind = Po_clobber; instr = Some next.s_def_at;
                    cell = c;
                    message =
                      Printf.sprintf
                        "output cell %%%d is overwritten after its final value \
                         (written at %d, never read)"
                        c s.s_def_at }
              | _ -> ()
          end;
          scan rest
      in
      scan chain)
    chains;
  (* RRAM leaks: the uncapped allocator opens a fresh device only when the
     free pool is empty, so a first-def of a brand-new cell after another
     cell went dead proves the dead device was held past its last use.
     Under a write cap, retired devices legitimately stay unused. *)
  let fresh_defs =
    (* (first-def index, cell) of every non-PI cell, ascending by index *)
    let acc = ref [] in
    Array.iteri
      (fun c chain ->
        if not is_pi.(c) then
          match List.find_opt (fun s -> s.s_def_at >= 0) chain with
          | Some s -> acc := (s.s_def_at, c) :: !acc
          | None -> ())
      chains;
    List.sort compare !acc
  in
  let leak_severity = match max_writes with Some _ -> Info | None -> Error in
  Array.iteri
    (fun c chain ->
      match List.rev chain with
      | [] -> ()
      | final :: _ ->
        if not final.s_live_out then begin
          let death =
            match final.s_uses with u :: _ -> u | [] -> final.s_def_at
          in
          match
            List.find_opt (fun (t, c') -> t > death + leak_grace && c' <> c) fresh_defs
          with
          | None -> ()
          | Some (t, c') ->
            add
              { severity = leak_severity; kind = Rram_leak; instr = Some t; cell = c;
                message =
                  Printf.sprintf
                    "cell %%%d is dead after instruction %d but fresh device %%%d \
                     is opened at %d%s"
                    c death c' t
                    (match max_writes with
                    | Some w ->
                      Printf.sprintf " (may be retirement under cap %d)" w
                    | None -> " — the allocator held it past its last use") }
        end)
    chains;
  (* cap: the maximum write count strategy, Table III's W knob *)
  (match max_writes with
  | None -> ()
  | Some w ->
    Array.iteri
      (fun c chain ->
        let writes = List.filter (fun s -> s.s_def_at >= 0) chain in
        if List.length writes > w then
          let offender = List.nth writes w in
          add
            { severity = Error; kind = Cap_exceeded; instr = Some offender.s_def_at;
              cell = c;
              message =
                Printf.sprintf
                  "cell %%%d takes %d static writes, exceeding the cap of %d at \
                   this instruction"
                  c (List.length writes) w })
      chains);
  (* unused cells: address-space gaps (e.g. fault-aware allocation) *)
  Array.iteri
    (fun c chain ->
      if chain = [] && not is_pi.(c) then
        add
          { severity = Info; kind = Unused_cell; instr = None; cell = c;
            message =
              Printf.sprintf "cell %%%d is inside num_cells but never loaded or \
                              written" c })
    chains;
  (* storage-duration report: how long each device is blocked holding a
     live value — the quantity Algorithm 3's node selection minimizes *)
  let per_cell_span = Array.make n 0 in
  let total = ref 0 and max_span = ref 0 and defs_counted = ref 0 in
  List.iter
    (fun s ->
      if not s.s_synthetic then begin
        incr defs_counted;
        let start = if s.s_def_at < 0 then 0 else s.s_def_at in
        let stop =
          if s.s_live_out then len
          else match s.s_uses with u :: _ -> u | [] -> start
        in
        let span = stop - start in
        per_cell_span.(s.s_cell) <- per_cell_span.(s.s_cell) + span;
        total := !total + span;
        if span > !max_span then max_span := span
      end)
    sites;
  let storage =
    { total_span = !total;
      max_span = !max_span;
      mean_span =
        (if !defs_counted = 0 then 0.0
         else float_of_int !total /. float_of_int !defs_counted);
      per_cell_span }
  in
  let counts = Array.make n 0 in
  List.iter (fun s -> if s.s_def_at >= 0 then counts.(s.s_cell) <- counts.(s.s_cell) + 1) sites;
  let order d =
    (* program-level findings last; stable kind order inside one instruction *)
    ( (match d.instr with Some i -> i | None -> max_int),
      d.cell,
      (match d.kind with
      | Use_before_def -> 0
      | Dead_write -> 1
      | Po_clobber -> 2
      | Rram_leak -> 3
      | Cap_exceeded -> 4
      | Unused_cell -> 5) )
  in
  let diagnostics =
    List.stable_sort (fun a b -> compare (order a) (order b)) (List.rev !diags)
  in
  Metrics.incr ~by:(List.length diagnostics) m_diagnostics;
  Metrics.incr
    ~by:(List.length (List.filter (fun d -> d.severity = Error) diagnostics))
    m_errors;
  let defs =
    List.filter_map
      (fun s ->
        if s.s_synthetic then None
        else
          Some
            { cell = s.s_cell; def_at = s.s_def_at; uses = List.rev s.s_uses;
              live_out = s.s_live_out })
      sites
  in
  { diagnostics; defs; storage; write_counts = counts }

let errors a = List.filter (fun d -> d.severity = Error) a.diagnostics

(* --- JSON -------------------------------------------------------------- *)

let json_escape = Plim_util.Jsonx.escape

let to_json ?(source = "") (p : Program.t) a =
  let b = Buffer.create 4096 in
  let count sev = List.length (List.filter (fun d -> d.severity = sev) a.diagnostics) in
  Printf.bprintf b
    "{\"schema\":\"plim-lint/v1\",\"source\":\"%s\",\"instructions\":%d,\"cells\":%d,\
     \"pis\":%d,\"pos\":%d,\"errors\":%d,\"warnings\":%d,\"infos\":%d,\
     \"diagnostics\":["
    (json_escape source) (Program.length p) (Program.num_cells p)
    (Array.length p.Program.pi_cells)
    (Array.length p.Program.po_cells)
    (count Error) (count Warning) (count Info);
  List.iteri
    (fun i d ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b
        "{\"severity\":\"%s\",\"kind\":\"%s\",\"instr\":%s,\"cell\":%d,\
         \"message\":\"%s\"}"
        (severity_name d.severity) (kind_name d.kind)
        (match d.instr with Some i -> string_of_int i | None -> "null")
        d.cell (json_escape d.message))
    a.diagnostics;
  let writes_total = Array.fold_left ( + ) 0 a.write_counts in
  let writes_max = Array.fold_left max 0 a.write_counts in
  Printf.bprintf b
    "],\"storage\":{\"total_span\":%d,\"max_span\":%d,\"mean_span\":%.6g},\
     \"writes\":{\"max\":%d,\"total\":%d}}"
    a.storage.total_span a.storage.max_span a.storage.mean_span writes_max
    writes_total;
  Buffer.contents b
