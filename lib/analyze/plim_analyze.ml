module Program = Plim_isa.Program
module Profile = Plim_obs.Profile
module Metrics = Plim_obs.Metrics
module Json = Plim_telemetry.Json
module Csr = Plim_util.Csr

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

(* --- def-use IR -------------------------------------------------------- *)

(* Every def ("site") in def order: PI loads first, then per instruction
   any placeholder it needs and its own def.  A placeholder is installed
   after a use-before-def report so later reads of the same cell chain
   quietly instead of cascading. *)
type chains = {
  def_count : int;
  def_cell : int array;
  def_instr : int array;
  def_live_out : bool array;
  def_placeholder : bool array;
  use_start : int array;
  use_instr : int array;
  chain_start : int array;
  chain : int array;
  has_use_before_def : bool;
}

type analysis = {
  diagnostics : diagnostic list;
  chains : chains;
  storage : storage;
  write_counts : int array;
}

(* One pass over the stream records the defs and the use events (def,
   instruction) in order, counting both per bucket; the two CSR layouts
   follow from the counts.  Returns the chains and the use-before-def
   reports.  With [~uses:false] it walks the defs alone: it records no use
   event and builds neither CSR layout, so only [def_count], [def_cell],
   [def_instr], [def_live_out] and [def_placeholder] of the result hold. *)
let build ~uses:with_uses (p : Program.t) =
  let n = p.Program.num_cells in
  let code = p.Program.code in
  let len = Array.length code in
  (* at most one placeholder per cell: it is installed only while the
     cell has no def, and every cell keeps a def from then on *)
  let cap = Array.length p.Program.pi_cells + len + n in
  let cell = Array.make cap 0 and def_at = Array.make cap (-1) in
  let live_out = Array.make cap false and placeholder = Array.make cap false in
  let chain_start = Array.make (n + 1) 0 in
  let defs = ref 0 in
  let push c i =
    let s = !defs in
    cell.(s) <- c;
    def_at.(s) <- i;
    chain_start.(c + 1) <- chain_start.(c + 1) + 1;
    incr defs;
    s
  in
  let sized k = if with_uses then k else 0 in
  let last_use = Array.make (sized cap) (-1) and use_start = Array.make (sized cap + 1) 0 in
  let ev_def = Array.make (sized (3 * len)) 0 and ev_instr = Array.make (sized (3 * len)) 0 in
  let events = ref 0 in
  let record s i =
    ev_def.(!events) <- s;
    ev_instr.(!events) <- i;
    use_start.(s + 1) <- use_start.(s + 1) + 1;
    incr events;
    last_use.(s) <- i
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* [last.(c)]: the def cell [c] holds, or -1 *)
  let last = Array.make n (-1) in
  (* PI loads happen before instruction 0, in declaration order: with two
     PIs bound to one cell (the compiler reuses the device of an unused
     input) the later load is the one that sticks. *)
  Array.iter (fun (_, c) -> last.(c) <- push c (-1)) p.Program.pi_cells;
  let use i c =
    let s = last.(c) in
    if s < 0 then begin
      add
        { severity = Error; kind = Use_before_def; instr = Some i; cell = c;
          message =
            Printf.sprintf
              "cell %%%d is read but never written before (and is not a \
               primary input)"
              c };
      let s = push c (-1) in
      placeholder.(s) <- true;
      last.(c) <- s;
      if with_uses then record s i
    end
    (* one use per instruction per value *)
    else if with_uses && last_use.(s) <> i then record s i
  in
  let bits = Program.field_bits and mask = Program.field_mask in
  for i = 0 to len - 1 do
    let w = code.(i) in
    let a = (w lsr bits) land mask and b = w lsr (2 * bits) and z = w land mask in
    if a >= 2 then use i (a - 2);
    if b >= 2 then use i (b - 2);
    (* [RM3 a, b, z] computes [z <- <a, !b, z>]; the old value of [z] is
       read unless both operands are constants with [a <> b] (the two
       set_const encodings, whose majority the operands alone decide) *)
    if a >= 2 || b >= 2 || a = b then use i z;
    last.(z) <- push z i
  done;
  Array.iter
    (fun (name, c) ->
      if last.(c) >= 0 then live_out.(last.(c)) <- true
      else
        add
          { severity = Error; kind = Use_before_def; instr = None; cell = c;
            message =
              Printf.sprintf "output %S reads cell %%%d which nothing ever writes"
                name c })
    p.Program.po_cells;
  let csr start add = if with_uses then Csr.scatter start add else [||] in
  if with_uses then begin
    Csr.prefix_sums use_start;
    Csr.prefix_sums chain_start
  end;
  ( { def_count = !defs; def_cell = cell; def_instr = def_at; def_live_out = live_out;
      def_placeholder = placeholder; use_start;
      use_instr =
        csr use_start (fun add ->
            for k = 0 to !events - 1 do add ev_def.(k) ev_instr.(k) done);
      chain_start;
      chain = csr chain_start (fun add -> for s = 0 to !defs - 1 do add cell.(s) s done);
      has_use_before_def = !diags <> [] },
    !diags )

let chains p = fst (build ~uses:true p)

(* per-cell static write bounds: the instruction defs of each cell *)
let counts_of ch num_cells =
  let counts = Array.make num_cells 0 in
  for s = 0 to ch.def_count - 1 do
    if ch.def_instr.(s) >= 0 then counts.(ch.def_cell.(s)) <- counts.(ch.def_cell.(s)) + 1
  done;
  counts

let write_counts (p : Program.t) =
  counts_of (fst (build ~uses:false p)) p.Program.num_cells

let defs a =
  let ch = a.chains in
  let defs = ref [] in
  for s = ch.def_count - 1 downto 0 do
    if not ch.def_placeholder.(s) then begin
      let uses = ref [] in
      for k = ch.use_start.(s + 1) - 1 downto ch.use_start.(s) do
        uses := ch.use_instr.(k) :: !uses
      done;
      defs :=
        { cell = ch.def_cell.(s); def_at = ch.def_instr.(s); uses = !uses;
          live_out = ch.def_live_out.(s) }
        :: !defs
    end
  done;
  !defs

(* --- checkers ---------------------------------------------------------- *)

(* Within one node's instruction group the translator requests temporaries
   after a child's last read but releases children only at group end, so a
   fresh open up to one group (<= 7 instructions) past a death is normal
   scheduling, not a held device. *)
let leak_grace = 8

let analyze ?max_writes (p : Program.t) =
  Profile.span "analyze.program" @@ fun () ->
  Metrics.incr m_programs;
  let ch, diags0 = build ~uses:true p in
  let n = p.Program.num_cells in
  let len = Program.length p in
  let diags = ref diags0 in
  let add d = diags := d :: !diags in
  let is_pi = Array.make n false and is_po = Array.make n false in
  Array.iter (fun (_, c) -> is_pi.(c) <- true) p.Program.pi_cells;
  Array.iter (fun (_, c) -> is_po.(c) <- true) p.Program.po_cells;
  let uses_of s = ch.use_start.(s + 1) - ch.use_start.(s) in
  (* the instruction a def's value dies at: its last use, else its def *)
  let death s =
    if uses_of s > 0 then ch.use_instr.(ch.use_start.(s + 1) - 1) else ch.def_instr.(s)
  in
  (* dead writes and PO clobbers: an unread, overwritten (or trailing,
     non-live-out) value; on an output cell the overwriting instruction is
     the clobber *)
  for c = 0 to n - 1 do
    let stop = ch.chain_start.(c + 1) in
    for k = ch.chain_start.(c) to stop - 1 do
      let s = ch.chain.(k) in
      if ch.def_instr.(s) >= 0 && uses_of s = 0 && not ch.def_live_out.(s) then begin
        add
          { severity = Error; kind = Dead_write; instr = Some ch.def_instr.(s); cell = c;
            message =
              Printf.sprintf
                "value written to cell %%%d is never read — wasted endurance" c };
        if is_po.(c) && k + 1 < stop && ch.def_instr.(ch.chain.(k + 1)) >= 0 then
          add
            { severity = Error; kind = Po_clobber;
              instr = Some ch.def_instr.(ch.chain.(k + 1)); cell = c;
              message =
                Printf.sprintf
                  "output cell %%%d is overwritten after its final value \
                   (written at %d, never read)"
                  c ch.def_instr.(s) }
      end
    done
  done;
  (* RRAM leaks: the uncapped allocator opens a fresh device only when the
     free pool is empty, so a first-def of a brand-new cell after another
     cell went dead proves the dead device was held past its last use.
     Under a write cap, retired devices legitimately stay unused. *)
  let fresh_at = Array.make len 0 and fresh_cell = Array.make len 0 in
  let fresh = ref 0 in
  (* the first def of every non-PI cell, ascending by instruction *)
  let defined = Array.copy is_pi in
  for i = 0 to len - 1 do
    let z = p.Program.code.(i) land Program.field_mask in
    if not defined.(z) then begin
      defined.(z) <- true;
      fresh_at.(!fresh) <- i;
      fresh_cell.(!fresh) <- z;
      incr fresh
    end
  done;
  (* dying cells by ascending death, so that one pointer moving forward
     through [fresh_at] finds each one's first fresh def past its grace;
     the cells in [fresh_cell] are distinct, so at most one is skipped *)
  let dying =
    List.filter
      (fun c ->
        let stop = ch.chain_start.(c + 1) in
        stop > ch.chain_start.(c) && not ch.def_live_out.(ch.chain.(stop - 1)))
      (List.init n Fun.id)
    |> Array.of_list
  in
  let death_of c = death ch.chain.(ch.chain_start.(c + 1) - 1) in
  Array.stable_sort (fun a b -> Int.compare (death_of a) (death_of b)) dying;
  let leak = Array.make n (-1) in
  let j = ref 0 in
  Array.iter
    (fun c ->
      while !j < !fresh && fresh_at.(!j) <= death_of c + leak_grace do
        incr j
      done;
      let k = if !j < !fresh && fresh_cell.(!j) = c then !j + 1 else !j in
      if k < !fresh then leak.(c) <- k)
    dying;
  let leak_severity = match max_writes with Some _ -> Info | None -> Error in
  Array.iteri
    (fun c k ->
      if k >= 0 then
        add
          { severity = leak_severity; kind = Rram_leak; instr = Some fresh_at.(k); cell = c;
            message =
              Printf.sprintf
                "cell %%%d is dead after instruction %d but fresh device %%%d \
                 is opened at %d%s"
                c (death_of c) fresh_cell.(k) fresh_at.(k)
                (match max_writes with
                | Some w -> Printf.sprintf " (may be retirement under cap %d)" w
                | None -> " — the allocator held it past its last use") })
    leak;
  let counts = counts_of ch n in
  (* cap: the maximum write count strategy, Table III's W knob *)
  (match max_writes with
  | None -> ()
  | Some w ->
    for c = 0 to n - 1 do
      if counts.(c) > w then begin
        (* the (w+1)-th write of the chain is the offender *)
        let seen = ref 0 and offender = ref (-1) in
        for k = ch.chain_start.(c) to ch.chain_start.(c + 1) - 1 do
          let at = ch.def_instr.(ch.chain.(k)) in
          if at >= 0 then begin
            if !seen = w then offender := at;
            incr seen
          end
        done;
        add
          { severity = Error; kind = Cap_exceeded; instr = Some !offender; cell = c;
            message =
              Printf.sprintf
                "cell %%%d takes %d static writes, exceeding the cap of %d at \
                 this instruction"
                c counts.(c) w }
      end
    done);
  (* unused cells: address-space gaps (e.g. fault-aware allocation) *)
  for c = 0 to n - 1 do
    if ch.chain_start.(c + 1) = ch.chain_start.(c) && not is_pi.(c) then
      add
        { severity = Info; kind = Unused_cell; instr = None; cell = c;
          message =
            Printf.sprintf "cell %%%d is inside num_cells but never loaded or \
                            written" c }
  done;
  (* storage-duration report: how long each device is blocked holding a
     live value — the quantity Algorithm 3's node selection minimizes *)
  let total = ref 0 and max_span = ref 0 and defs_counted = ref 0 in
  for s = 0 to ch.def_count - 1 do
    if not ch.def_placeholder.(s) then begin
      incr defs_counted;
      let start = max 0 ch.def_instr.(s) in
      let stop =
        if ch.def_live_out.(s) then len
        else if uses_of s > 0 then death s
        else start
      in
      let span = stop - start in
      total := !total + span;
      if span > !max_span then max_span := span
    end
  done;
  let storage =
    { total_span = !total;
      max_span = !max_span;
      mean_span =
        (if !defs_counted = 0 then 0.0
         else float_of_int !total /. float_of_int !defs_counted) }
  in
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
  { diagnostics; chains = ch; storage; write_counts = counts }

let errors a = List.filter (fun d -> d.severity = Error) a.diagnostics

(* --- JSON -------------------------------------------------------------- *)

let storage_json s =
  Json.Obj
    [ ("total_span", Int s.total_span); ("max_span", Int s.max_span);
      ("mean_span", Num s.mean_span) ]

let to_json ?(source = "") (p : Program.t) a =
  let count sev = List.length (List.filter (fun d -> d.severity = sev) a.diagnostics) in
  let diagnostic d =
    Json.Obj
      [ ("severity", Str (severity_name d.severity)); ("kind", Str (kind_name d.kind));
        ("instr", match d.instr with Some i -> Int i | None -> Null);
        ("cell", Int d.cell); ("message", Str d.message) ]
  in
  Json.Obj
    [ ("schema", Str "plim-lint/v1"); ("source", Str source);
      ("instructions", Int (Program.length p)); ("cells", Int (Program.num_cells p));
      ("pis", Int (Array.length p.Program.pi_cells));
      ("pos", Int (Array.length p.Program.po_cells)); ("errors", Int (count Error));
      ("warnings", Int (count Warning)); ("infos", Int (count Info));
      ("diagnostics", Arr (List.map diagnostic a.diagnostics));
      ("storage", storage_json a.storage);
      ( "writes",
        Obj
          [ ("max", Int (Array.fold_left max 0 a.write_counts));
            ("total", Int (Array.fold_left ( + ) 0 a.write_counts)) ] ) ]
