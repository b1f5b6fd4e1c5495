module Program = Plim_isa.Program
module I = Plim_isa.Instruction
module Metrics = Plim_obs.Metrics

type stats = {
  verify_reads : int;
  detections : int;
  remaps : int;
  retries : int;
}

let zero_stats = { verify_reads = 0; detections = 0; remaps = 0; retries = 0 }

let add_stats a b =
  { verify_reads = a.verify_reads + b.verify_reads;
    detections = a.detections + b.detections;
    remaps = a.remaps + b.remaps;
    retries = a.retries + b.retries }

type outcome = Completed of (string * bool) list | Out_of_spares of int

exception Pool_dry of int

let m_verify_reads = Metrics.counter "fault.verify_reads"
let m_detections = Metrics.counter "fault.detections"

(* One execution's write-verify state.  The loop below is top-level
   functions over this record, so no instruction or scrubbed cell
   allocates a closure. *)
type state = {
  fx : Faulty.t;
  rm : Remap.t;
  verify : bool;
  mutable reads : int;
  mutable detected : int;
  mutable remapped : int;
  mutable retried : int;
}

(* Re-deposit the intended value on physical line [pa]: a load for scrub
   and input deposits, a counted write for RM3 results. *)
let rewrite st ~load pa v =
  if load then Faulty.load st.fx pa v else Faulty.write st.fx pa v

(* In-place rewrites of a mismatching line before it is retired. *)
let max_retries = 2

(* Read logical line [l] back until it holds [intended]: up to
   [max_retries] in-place rewrites, then retire the line and replay the
   value on a spare, which is verified in turn. *)
let rec check st l ~load ~intended tries =
  st.reads <- st.reads + 1;
  Metrics.incr m_verify_reads;
  let pa = Remap.physical st.rm l in
  if Faulty.read st.fx pa <> intended then
    if tries < max_retries then begin
      st.retried <- st.retried + 1;
      rewrite st ~load pa intended;
      check st l ~load ~intended (tries + 1)
    end
    else begin
      st.detected <- st.detected + 1;
      Metrics.incr m_detections;
      match Remap.retire st.rm l with
      | None -> raise (Pool_dry l)
      | Some spare ->
        st.remapped <- st.remapped + 1;
        rewrite st ~load spare intended;
        check st l ~load ~intended 0
    end

let verified_load st l v =
  Faulty.load st.fx (Remap.physical st.rm l) v;
  if st.verify then check st l ~load:true ~intended:v 0

let read st c = Faulty.read st.fx (Remap.physical st.rm c)

(* An operand code of the packed stream: 0/1 a constant, cell + 2. *)
let operand read c = if c < 2 then c = 1 else read (c - 2)

(* One packed RM3 word (Program's layout). *)
let step st read w =
  let a = operand read ((w lsr Program.field_bits) land Program.field_mask) in
  let b = operand read (w lsr (2 * Program.field_bits)) in
  let l = w land Program.field_mask in
  if st.verify then begin
    let intended = I.semantics ~a ~b ~z:(read l) in
    Faulty.rm3 st.fx ~p:a ~q:b (Remap.physical st.rm l);
    check st l ~load:false ~intended 0
  end
  else Faulty.rm3 st.fx ~p:a ~q:b (Remap.physical st.rm l)

let run ?(verify = false) fx rm (p : Program.t) ~inputs =
  if Remap.lines rm < p.Program.num_cells then
    invalid_arg "Exec.run: remap table smaller than the program's cell count";
  if Remap.num_physical rm > Faulty.size fx then
    invalid_arg "Exec.run: crossbar smaller than the remap table's physical space";
  let st = { fx; rm; verify; reads = 0; detected = 0; remapped = 0; retried = 0 } in
  (* the vector is checked before any array operation, so a bad one
     never consumes spares *)
  Program.check_inputs ~caller:"Exec.run" p.Program.pi_cells inputs;
  let read = read st in
  let outcome =
    try
      (* power-on reset / scrub: compiled programs assume all-HRS state *)
      for l = 0 to p.Program.num_cells - 1 do
        verified_load st l false
      done;
      Array.iteri (fun i (_, cell) -> verified_load st cell inputs.(i)) p.Program.pi_cells;
      for i = 0 to Program.length p - 1 do
        step st read p.Program.code.(i)
      done;
      Completed (Program.read_outputs p.Program.po_cells read)
    with Pool_dry l -> Out_of_spares l
  in
  ( outcome,
    { verify_reads = st.reads;
      detections = st.detected;
      remaps = st.remapped;
      retries = st.retried } )
