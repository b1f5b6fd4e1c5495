(* Prints the words [Recipe.run Algorithm2 ~effort:5] allocates, minor
   plus direct major, per source node, on two EPFL circuits, and exits 1
   when one reads above its bound.  On these circuits a first Ω.D pass
   grows the graph by 14% (square) and 18% (mem_ctrl), which storage
   sized for the source alone could not hold; test_rewrite's
   [allocation] group bounds the same figure on small-suite circuits.
   One line per circuit:
   [<circuit> <source nodes> <words per source node> (bound <b>)].

   The figures read 17.1 (mem_ctrl) and 14.4 (square) with rebuild
   storage allocated once per call, a strash of 4-byte slots and one
   12-byte record per node in a [Bytes.t]; the bounds sit below the 25.4
   and 22.5 the same storage read with four word-sized node arrays, and
   the 26.6 and 25.9 it read with 8-byte strash slots.  Storage sized for
   the source and a strash per target read 41.5 and 41.9.

   Usage: recipe_words.exe *)

module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe
module Mig = Plim_mig.Mig

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
  ignore (Sys.opaque_identity (f ()));
  words () -. before

let () =
  let over =
    List.filter
      (fun (name, bound) ->
        let g = (Suite.find name).Suite.build () in
        let words = total_words_of (fun () -> Recipe.run Recipe.Algorithm2 ~effort:5 g) in
        let per_node = words /. float_of_int (Mig.num_nodes g) in
        Printf.printf "%s %d %.1f (bound %.1f)\n%!" name (Mig.num_nodes g) per_node bound;
        per_node > bound)
      [ ("mem_ctrl", 19.); ("square", 16.5) ]
  in
  if over <> [] then begin
    prerr_endline "recipe_words: words per source node above the bound";
    exit 1
  end
