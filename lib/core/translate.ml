module Mig = Plim_mig.Mig
module Program = Plim_isa.Program
module Metrics = Plim_obs.Metrics
module Trace = Plim_obs.Trace

let m_instrs = Metrics.counter "translate.instrs"
let m_in_place = Metrics.counter "translate.in_place_rm3"
let m_complements = Metrics.counter "translate.complements"
let m_copies = Metrics.counter "translate.copies"

type ctx = {
  g : Mig.t;
  alloc : Alloc.t;
  cell_of : int array;
  pending : int array;
  pi_cell : int array;   (* PI index -> load cell, stable for the PI map *)
  mutable code : int array;  (* packed RM3 words (Program's layout), [len] used *)
  mutable len : int;
  dest_min_write : bool;
  mutable on_pending_one : int -> unit;
}

let make_ctx ?(dest_min_write = false) g alloc =
  let n = Mig.num_nodes g in
  (* pending uses: fanout among reachable nodes plus output references *)
  let pending = Array.make n 0 in
  ignore (Mig.sweep_into g ~reachable:(Array.make n false) ~refs:pending);
  { g;
    alloc;
    cell_of = Array.make n (-1);
    pending;
    pi_cell = Array.make (Mig.num_inputs g) (-1);
    (* two RM3s per node: the EPFL circuits emit 0.9-1.8, so the buffer
       seldom grows *)
    code = Array.make (2 * n + 16) 0;
    len = 0;
    dest_min_write;
    on_pending_one = (fun _ -> ()) }

(* Operand codes: 0 and 1 for the constants, cell + 2 for a cell. *)
let const_code v = Bool.to_int v
let cell_code c = c + 2

(* RM3(a, b, z) packed into the buffer; [a] and [b] are operand codes.
   A cell past [Program.max_cells] would wrap a field, so it is refused. *)
let emit ctx a b z =
  if z >= Program.max_cells || a >= Program.max_cells + 2 || b >= Program.max_cells + 2
  then invalid_arg "Translate.emit: cell beyond Program.max_cells";
  if ctx.len = Array.length ctx.code then begin
    let code = Array.make (2 * ctx.len) 0 in
    Array.blit ctx.code 0 code 0 ctx.len;
    ctx.code <- code
  end;
  ctx.code.(ctx.len) <-
    z lor (a lsl Program.field_bits) lor (b lsl (2 * Program.field_bits));
  ctx.len <- ctx.len + 1;
  Metrics.incr m_instrs;
  Alloc.note_write ctx.alloc z

(* RM3(1,0,z) forces 1 and RM3(0,1,z) forces 0 (Instruction.set_const) *)
let emit_set ctx v z = emit ctx (const_code v) (const_code (not v)) z

let place_inputs ctx =
  for pi = 0 to Mig.num_inputs ctx.g - 1 do
    let id = Mig.node_of (Mig.input_signal ctx.g pi) in
    let cell = Alloc.request ctx.alloc in
    ctx.cell_of.(id) <- cell;
    ctx.pi_cell.(pi) <- cell;
    (* an unused input still occupies a device at load time, but it can be
       reclaimed immediately for computation *)
    if ctx.pending.(id) = 0 then Alloc.release ctx.alloc cell
  done

(* --- helpers producing operand values ------------------------------- *)

(* constant signals carry their value in the polarity bit *)
let const_value s =
  assert (Mig.is_const s);
  Mig.is_complemented s

let cell_of_child ctx s =
  let c = ctx.cell_of.(Mig.node_of s) in
  assert (c >= 0);
  c

(* cell freshly loaded with !v where the child's device holds v:
   set tmp := 1; RM3(0, v, tmp) -> <0, !v, 1> = !v *)
let materialize_complement ~needed ctx s =
  Metrics.incr m_complements;
  let src = cell_of_child ctx s in
  let tmp = Alloc.request ~needed ctx.alloc in
  emit_set ctx true tmp;
  emit ctx (const_code false) (cell_code src) tmp;
  tmp

(* cell freshly loaded with v: set tmp := 0; RM3(v, 0, tmp) -> <v,1,0> = v.
   Always used as the destination of the consuming RM3, hence 3 writes. *)
let materialize_copy ctx s =
  Metrics.incr m_copies;
  let src = cell_of_child ctx s in
  let tmp = Alloc.request ~needed:3 ctx.alloc in
  emit_set ctx false tmp;
  emit ctx (cell_code src) (const_code false) tmp;
  tmp

(* --- role costs ------------------------------------------------------ *)

let in_place_ok ctx s =
  (not (Mig.is_const s))
  && (not (Mig.is_complemented s))
  && ctx.pending.(Mig.node_of s) = 1
  && Alloc.can_write ctx.alloc (cell_of_child ctx s)

(* extra instructions needed to use child [s] in each RM3 role *)
let cost_p s = if Mig.is_const s then 0 else if Mig.is_complemented s then 2 else 0
let cost_q s = if Mig.is_const s then 0 else if Mig.is_complemented s then 0 else 2

let cost_z ctx s =
  if Mig.is_const s then 1
  else if Mig.is_complemented s then 2
  else if in_place_ok ctx s then 0
  else 2

(* write count of the device an in-place destination would overwrite *)
let z_writes ctx s =
  if in_place_ok ctx s then Alloc.writes_of ctx.alloc (cell_of_child ctx s)
  else max_int

(* The six role assignments, permutation [k] giving the child positions
   (0..2) of P, Q and Z, in the order the first-wins choice scans them. *)
let perm_p = [| 0; 0; 1; 1; 2; 2 |]
let perm_q = [| 1; 2; 0; 2; 0; 1 |]
let perm_z = [| 2; 1; 2; 0; 1; 0 |]

let nth a b c i = if i = 0 then a else if i = 1 then b else c

let role_cost ctx a b c k =
  cost_p (nth a b c perm_p.(k)) + cost_q (nth a b c perm_q.(k))
  + cost_z ctx (nth a b c perm_z.(k))

(* child bookkeeping: decrement uses, free dead devices *)
let finish_child ctx ~in_place_node s =
  let n = Mig.node_of s in
  if n <> 0 then begin
    ctx.pending.(n) <- ctx.pending.(n) - 1;
    if ctx.pending.(n) = 0 then begin
      (* consumed in place, the device now holds the parent's value *)
      if n <> in_place_node then Alloc.release ctx.alloc ctx.cell_of.(n);
      ctx.cell_of.(n) <- -1
    end
    else if ctx.pending.(n) = 1 then ctx.on_pending_one n
  end

let compute_node ctx id =
  if not (Mig.is_maj ctx.g id) then
    invalid_arg "Translate.compute_node: not a majority node";
  let a = Mig.child ctx.g id 0 and b = Mig.child ctx.g id 1 and c = Mig.child ctx.g id 2 in
  (* pick the cheapest role assignment, the first of equals; optional
     ablation tie-break: among in-place destinations prefer the
     least-written device *)
  let best = ref 0 and best_cost = ref (role_cost ctx a b c 0) in
  for k = 1 to 5 do
    let ck = role_cost ctx a b c k in
    if
      ck < !best_cost
      || ck = !best_cost && ctx.dest_min_write
         && z_writes ctx (nth a b c perm_z.(k))
            < z_writes ctx (nth a b c perm_z.(!best))
    then begin
      best := k;
      best_cost := ck
    end
  done;
  let sp = nth a b c perm_p.(!best)
  and sq = nth a b c perm_q.(!best)
  and sz = nth a b c perm_z.(!best) in
  (* destination first (never clobbers a child device) *)
  let in_place = in_place_ok ctx sz in
  let zcell =
    if Mig.is_const sz then begin
      let cell = Alloc.request ctx.alloc in
      emit_set ctx (const_value sz) cell;
      cell
    end
    else if Mig.is_complemented sz then materialize_complement ~needed:3 ctx sz
    else if in_place then begin
      Metrics.incr m_in_place;
      cell_of_child ctx sz
    end
    else materialize_copy ctx sz
  in
  (* temporaries, -1 when the operand needs none *)
  let p_tmp =
    if Mig.is_complemented sp && not (Mig.is_const sp) then
      materialize_complement ~needed:2 ctx sp
    else -1
  in
  let q_tmp =
    if Mig.is_complemented sq || Mig.is_const sq then -1
    else materialize_complement ~needed:2 ctx sq
  in
  let p_operand =
    if Mig.is_const sp then const_code (const_value sp)
    else cell_code (if p_tmp >= 0 then p_tmp else cell_of_child ctx sp)
  in
  let q_operand =
    if Mig.is_const sq then const_code (not (const_value sq))
    else cell_code (if q_tmp >= 0 then q_tmp else cell_of_child ctx sq)
  in
  emit ctx p_operand q_operand zcell;
  if Trace.enabled () then
    Trace.emit "translate.rm3"
      ~args:[ ("node", Int id); ("z", Int zcell); ("in_place", Bool in_place) ];
  ctx.cell_of.(id) <- zcell;
  (* temporaries are dead once the instruction has executed *)
  if q_tmp >= 0 then Alloc.release ctx.alloc q_tmp;
  if p_tmp >= 0 then Alloc.release ctx.alloc p_tmp;
  let in_place_node = if in_place then Mig.node_of sz else -1 in
  finish_child ctx ~in_place_node a;
  finish_child ctx ~in_place_node b;
  finish_child ctx ~in_place_node c

let materialize_outputs ctx =
  let outs = Mig.outputs ctx.g in
  (* A node referenced uncomplemented keeps its device: that cell IS the
     output.  A node referenced only through complements is dead once its
     last complement is materialized — release its device so the remaining
     outputs' temporaries reuse it instead of opening fresh cells. *)
  let direct = Hashtbl.create 16 in
  Array.iter
    (fun (_, s) ->
      let n = Mig.node_of s in
      if n <> 0 && not (Mig.is_complemented s) then Hashtbl.replace direct n ())
    outs;
  let complement_cache = Hashtbl.create 16 in
  Array.map
    (fun (name, s) ->
      let n = Mig.node_of s in
      if n = 0 then begin
        let cell = Alloc.request ctx.alloc in
        emit_set ctx (const_value s) cell;
        (name, cell)
      end
      else begin
        let c = ctx.cell_of.(n) in
        assert (c >= 0);
        let finish () =
          ctx.pending.(n) <- ctx.pending.(n) - 1;
          if ctx.pending.(n) = 0 && not (Hashtbl.mem direct n) then begin
            Alloc.release ctx.alloc c;
            ctx.cell_of.(n) <- -1
          end
        in
        if not (Mig.is_complemented s) then begin
          finish ();
          (name, c)
        end
        else
          match Hashtbl.find_opt complement_cache n with
          | Some cell ->
            finish ();
            (name, cell)
          | None ->
            let cell = materialize_complement ~needed:2 ctx (Mig.signal n false) in
            Hashtbl.replace complement_cache n cell;
            finish ();
            (name, cell)
      end)
    outs
