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

let run ?(verify = false) ?(max_retries = 2) ?(reset = true) fx rm (p : Program.t)
    ~inputs =
  if Remap.lines rm < p.Program.num_cells then
    invalid_arg "Exec.run: remap table smaller than the program's cell count";
  if Remap.num_physical rm > Faulty.size fx then
    invalid_arg "Exec.run: crossbar smaller than the remap table's physical space";
  let verify_reads = ref 0
  and detections = ref 0
  and remaps = ref 0
  and retries = ref 0 in
  (* Write-verify loop shared by loads, input deposits and RM3 results:
     [put pa] performs the raw operation on physical line [pa]; [rewrite]
     re-deposits the intended value on retries and spares. *)
  let verified l ~intended ~put ~rewrite =
    put (Remap.physical rm l);
    if verify then begin
      let rec check tries =
        incr verify_reads;
        Metrics.incr m_verify_reads;
        let pa = Remap.physical rm l in
        if Faulty.read fx pa <> intended then
          if tries < max_retries then begin
            incr retries;
            rewrite pa;
            check (tries + 1)
          end
          else begin
            incr detections;
            Metrics.incr m_detections;
            match Remap.retire rm l with
            | None -> raise (Pool_dry l)
            | Some spare ->
              incr remaps;
              rewrite spare;
              check 0
          end
      in
      check 0
    end
  in
  let verified_load l v =
    verified l ~intended:v ~put:(fun pa -> Faulty.load fx pa v)
      ~rewrite:(fun pa -> Faulty.load fx pa v)
  in
  (* binding is validated before any array operation, so a bad binding
     never consumes spares *)
  let values = Program.bind_inputs ~caller:"Exec.run" p.Program.pi_cells inputs in
  let read c = Faulty.read fx (Remap.physical rm c) in
  let outcome =
    try
      (* power-on reset / scrub: compiled programs assume all-HRS state *)
      if reset then
        for l = 0 to p.Program.num_cells - 1 do
          verified_load l false
        done;
      Array.iteri (fun i (_, cell) -> verified_load cell values.(i)) p.Program.pi_cells;
      (* instruction stream *)
      Array.iter
        (fun (instr : I.t) ->
          let a = Program.operand read instr.I.a in
          let b = Program.operand read instr.I.b in
          let l = instr.I.z in
          if verify then begin
            let z = read l in
            let intended = I.semantics ~a ~b ~z in
            verified l ~intended
              ~put:(fun pa -> Faulty.rm3 fx ~p:a ~q:b pa)
              ~rewrite:(fun pa -> Faulty.write fx pa intended)
          end
          else Faulty.rm3 fx ~p:a ~q:b (Remap.physical rm l))
        p.Program.instrs;
      Completed (Program.read_outputs p.Program.po_cells read)
    with Pool_dry l -> Out_of_spares l
  in
  ( outcome,
    { verify_reads = !verify_reads;
      detections = !detections;
      remaps = !remaps;
      retries = !retries } )
