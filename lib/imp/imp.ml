module Mig = Plim_mig.Mig
module Crossbar = Plim_rram.Crossbar
module Program = Plim_isa.Program
module Alloc = Plim_core.Alloc
module Vec = Plim_util.Vec
module Splitmix = Plim_util.Splitmix

type instr =
  | False of int
  | Imply of int * int

type program = {
  instrs : instr array;
  num_cells : int;
  pi_cells : (string * int) array;
  po_cells : (string * int) array;
}

let length p = Array.length p.instrs
let num_cells p = p.num_cells

let static_write_counts p =
  let counts = Array.make p.num_cells 0 in
  Array.iter
    (function
      | False z -> counts.(z) <- counts.(z) + 1
      | Imply (_, q) -> counts.(q) <- counts.(q) + 1)
    p.instrs;
  counts

(* ------------------------------------------------------------------ *)
(* Compilation state: each computed node can be held in positive and/or
   negative phase; conversions are materialised on demand and memoised. *)

type ctx = {
  g : Mig.t;
  alloc : Alloc.t;
  instrs : instr Vec.t;
  pos : int array;      (* node -> cell holding the value, or -1 *)
  neg : int array;      (* node -> cell holding the complement, or -1 *)
  pending : int array;
  const_cell : int array; (* [| cell of 0; cell of 1 |], -1 until used *)
}

let emit ctx i =
  ignore (Vec.push ctx.instrs i);
  match i with
  | False z -> Alloc.note_write ctx.alloc z
  | Imply (_, q) -> Alloc.note_write ctx.alloc q

(* t <- !(value of cell p): FALSE t; IMP p t *)
let not_into ctx p =
  let t = Alloc.request ctx.alloc in
  emit ctx (False t);
  emit ctx (Imply (p, t));
  t

(* the cell holding constant [v], materialised once *)
let rec const_cell ctx v =
  let idx = if v then 1 else 0 in
  if ctx.const_cell.(idx) >= 0 then ctx.const_cell.(idx)
  else begin
    let cell =
      if not v then begin
        let z = Alloc.request ctx.alloc in
        emit ctx (False z);
        z
      end
      else not_into ctx (const_cell ctx false) (* 1 = !0 *)
    in
    ctx.const_cell.(idx) <- cell;
    cell
  end

(* cell holding the given phase of node [n] (which must be computed) *)
let phase_cell ctx n ~complemented =
  if n = 0 then const_cell ctx complemented
  else begin
    let have, missing = if complemented then (ctx.neg, ctx.pos) else (ctx.pos, ctx.neg) in
    if have.(n) >= 0 then have.(n)
    else begin
      assert (missing.(n) >= 0);
      let cell = not_into ctx missing.(n) in
      have.(n) <- cell;
      cell
    end
  end

let literal ctx s = phase_cell ctx (Mig.node_of s) ~complemented:(Mig.is_complemented s)

let neg_literal ctx s =
  phase_cell ctx (Mig.node_of s) ~complemented:(not (Mig.is_complemented s))

(* s <- !(a & b) from positive-literal cells: FALSE s; IMP a s; IMP b s *)
let nand_into ctx a b =
  let s = Alloc.request ctx.alloc in
  emit ctx (False s);
  emit ctx (Imply (a, s));
  emit ctx (Imply (b, s));
  s

let compute_node ctx id =
  match Mig.kind ctx.g id with
  | Mig.Const | Mig.Input _ -> invalid_arg "Imp.compute_node"
  | Mig.Maj (a, b, c) ->
    (* constant children collapse the majority into AND / OR *)
    let consts, vars = List.partition Mig.is_const [ a; b; c ] in
    (match (consts, vars) with
    | [], [ _; _; _ ] ->
      (* true majority: <abc> = (ab) \/ (ac) \/ (bc), via three NANDs
         drained into an implication chain *)
      let la = literal ctx a and lb = literal ctx b and lc = literal ctx c in
      let nab = nand_into ctx la lb in
      let nac = nand_into ctx la lc in
      let nbc = nand_into ctx lb lc in
      let s = Alloc.request ctx.alloc in
      emit ctx (False s);
      emit ctx (Imply (nab, s));
      emit ctx (Imply (nac, s));
      emit ctx (Imply (nbc, s));
      List.iter (Alloc.release ctx.alloc) [ nab; nac; nbc ];
      ctx.pos.(id) <- s
    | [ k ], [ x; y ] ->
      if Mig.is_complemented k then begin
        (* OR: x \/ y = !(!x & !y) = NAND(!x, !y), positive phase *)
        let nx = neg_literal ctx x and ny = neg_literal ctx y in
        ctx.pos.(id) <- nand_into ctx nx ny
      end
      else begin
        (* AND: store the NAND, i.e. the negative phase *)
        let lx = literal ctx x and ly = literal ctx y in
        ctx.neg.(id) <- nand_into ctx lx ly
      end
    | _ ->
      (* two or three constant children cannot survive O.M construction *)
      assert false)

let release_node ctx n =
  if ctx.pos.(n) >= 0 then begin
    Alloc.release ctx.alloc ctx.pos.(n);
    ctx.pos.(n) <- -1
  end;
  if ctx.neg.(n) >= 0 then begin
    Alloc.release ctx.alloc ctx.neg.(n);
    ctx.neg.(n) <- -1
  end

let compile ?(strategy = Alloc.Lifo) g =
  let n = Mig.num_nodes g in
  let fanout = Mig.fanout_counts g in
  let out_refs = Mig.output_refs g in
  let ctx =
    { g;
      alloc = Alloc.create ~strategy ();
      instrs = Vec.create ~dummy:(False 0) ();
      pos = Array.make n (-1);
      neg = Array.make n (-1);
      pending = Array.init n (fun i -> fanout.(i) + out_refs.(i));
      const_cell = [| -1; -1 |] }
  in
  (* inputs occupy read-only cells *)
  let pi_cells =
    Array.init (Mig.num_inputs g) (fun pi ->
        let id = Mig.node_of (Mig.input_signal g pi) in
        let cell = Alloc.request ctx.alloc in
        ctx.pos.(id) <- cell;
        (Mig.input_name g pi, cell))
  in
  Mig.iter_reachable_maj g (fun id ->
      compute_node ctx id;
      match Mig.kind g id with
      | Mig.Maj (a, b, c) ->
        List.iter
          (fun s ->
            let child = Mig.node_of s in
            if child <> 0 then begin
              ctx.pending.(child) <- ctx.pending.(child) - 1;
              if ctx.pending.(child) = 0 then release_node ctx child
            end)
          [ a; b; c ]
      | Mig.Const | Mig.Input _ -> ());
  let po_cells =
    Array.map
      (fun (name, s) -> (name, literal ctx s))
      (Mig.outputs g)
  in
  { instrs = Vec.to_array ctx.instrs;
    num_cells = Alloc.total_allocated ctx.alloc;
    pi_cells;
    po_cells }

(* ------------------------------------------------------------------ *)

let run p ~inputs =
  Program.check_inputs ~caller:"Imp.run" p.pi_cells inputs;
  let xbar = Crossbar.create p.num_cells in
  Array.iteri (fun i (_, cell) -> Crossbar.load xbar cell inputs.(i)) p.pi_cells;
  Array.iter
    (function
      | False z -> Crossbar.write xbar z false
      | Imply (pc, q) ->
        (* q <- !p \/ q is RM3(1, p, q) *)
        let pv = Crossbar.read xbar pc in
        Crossbar.rm3 xbar ~p:true ~q:pv q)
    p.instrs;
  (Program.read_outputs p.po_cells (Crossbar.read xbar), xbar)

let check_random mig p =
  let trials = 16 in
  let rng = Splitmix.create 0x1103 in
  let n = Mig.num_inputs mig in
  let rec go t =
    if t = 0 then Ok ()
    else begin
      let vector = Splitmix.bits rng ~width:n in
      let expected = Mig.eval mig vector in
      let outputs, _ = run p ~inputs:vector in
      let actual = Array.of_list (List.map snd outputs) in
      if actual = expected then go (t - 1)
      else
        Error
          (Printf.sprintf "trial %d: outputs differ (expected %s, got %s)" (trials - t)
             (String.concat ""
                (Array.to_list (Array.map (fun b -> if b then "1" else "0") expected)))
             (String.concat ""
                (Array.to_list (Array.map (fun b -> if b then "1" else "0") actual))))
    end
  in
  go trials
