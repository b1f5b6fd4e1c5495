(* Prints the words three stages of [plimc compile] allocate, minor plus
   direct major, on two EPFL circuits, and the words the graphs they keep
   hold, and exits 1 when one reads above its bound:
   - [Recipe.run Algorithm2 ~effort:5], per source node;
   - [Pipeline.compile_rewritten endurance_full] on the recipe's output,
     per RM3 instruction;
   - [Plim_analyze.analyze] on the compiled program, per instruction;
   - stored: [Obj.reachable_words] per node of the fresh source graph
     and of the recipe's result.
   Each circuit is measured in a fresh process (the executable runs
   itself once per circuit), so a figure does not depend on what an
   earlier circuit left behind.  One line per figure:
   [<circuit> <stage> <count> <words per unit> (bound <b>)], and for the
   stored words [<circuit> stored <source nodes> <words per node>
   <result nodes> <words per node> (bound <b>)].

   Recipe: on these circuits a first Ω.D pass grows the graph by 14%
   (square) and 18% (mem_ctrl), which storage sized for the source alone
   could not hold; test_rewrite's [allocation] group bounds the same
   figure on small-suite circuits.  The figures read 15.6 (mem_ctrl) and
   13.2 (square) with rebuild storage allocated once per call, a strash
   of 4-byte slots, one 12-byte record per node in a [Bytes.t] and a
   result without a strash; 17.1 and 14.4 when the result kept one.  The
   bounds sit below those, and far below the 25.4 and 22.5 the same
   storage read with four word-sized node arrays, and the 26.6 and 25.9
   it read with 8-byte strash slots.  Storage sized for the source and a
   strash per target read 41.5 and 41.9.

   Stored: a graph that keeps its strash holds 2.8-3.8 words per node
   here; without one, sources read 1.9 (mem_ctrl) and 1.6 (square) and
   results 2.0 and 1.5, so a table that comes back fails the bound.

   Backend and analyzer: with every per-compile array sized to what it
   holds, they read 17.7 (mem_ctrl) and 15.4 (square) words per
   instruction in the backend and 6.6 and 6.2 in the analyzer.  With
   four node-sized arrays behind [pending], a second [output_refs],
   copied CSR fill cursors, and in the analyzer an event buffer of six
   words per instruction and a word per boolean flag, they read 21.8
   and 20.5, and 18.6 and 18.0: the bounds sit below those.

   Usage: recipe_words.exe *)

module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Mig = Plim_mig.Mig
module Pipeline = Plim_core.Pipeline
module Program = Plim_isa.Program

(* As test/helpers.ml's [total_words_of]: [Gc.minor] before each snapshot
   counts what is still in the minor heap, and a full major collection
   before the first keeps earlier allocation out of [major_words]. *)
let total_words_of f =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let before = words () in
  let r = Sys.opaque_identity (f ()) in
  (r, words () -. before)

(* (circuit, bounds for recipe per source node, backend and analyze per
   instruction) *)
let circuits = [ ("mem_ctrl", (17.5, 20.4, 7.6)); ("square", (15.0, 17.7, 7.1)) ]

(* words per node a stored graph may hold *)
let stored_bound = 2.5

(* Measures one circuit; true when every figure is within its bound. *)
let measure name (recipe_bound, backend_bound, analyze_bound) =
  let line stage count words bound =
    let per = words /. float_of_int count in
    Printf.printf "%s %s %d %.1f (bound %.1f)\n%!" name stage count per bound;
    per <= bound
  in
  let g = (Suite.find name).Suite.build () in
  let r, rw = total_words_of (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g) in
  let stored g = float_of_int (Obj.reachable_words (Obj.repr g)) /. float_of_int (Mig.num_nodes g) in
  let source_words = stored g and result_words = stored r in
  Printf.printf "%s stored %d %.2f %d %.2f (bound %.1f)\n%!" name (Mig.num_nodes g) source_words
    (Mig.num_nodes r) result_words stored_bound;
  let ok_stored = source_words <= stored_bound && result_words <= stored_bound in
  let res, bw =
    total_words_of (fun () -> Pipeline.compile_rewritten Pipeline.endurance_full r)
  in
  let p = res.Pipeline.program in
  let _, aw = total_words_of (fun () -> Plim_analyze.analyze p) in
  let instrs = Program.length p in
  let ok_recipe = line "recipe" (Mig.num_nodes g) rw recipe_bound in
  let ok_backend = line "backend" instrs bw backend_bound in
  let ok_analyze = line "analyze" instrs aw analyze_bound in
  ok_stored && ok_recipe && ok_backend && ok_analyze

let () =
  match Sys.argv with
  | [| _; name |] -> if not (measure name (List.assoc name circuits)) then exit 1
  | _ ->
    let failed =
      List.filter
        (fun (name, _) ->
          let pid =
            Unix.create_process Sys.executable_name
              [| Sys.executable_name; name |]
              Unix.stdin Unix.stdout Unix.stderr
          in
          match Unix.waitpid [] pid with
          | _, Unix.WEXITED 0 -> false
          | _ -> true)
        circuits
    in
    if failed <> [] then begin
      prerr_endline "recipe_words: words above the bound";
      exit 1
    end
