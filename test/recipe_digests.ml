(* Prints the [Mig_io.digest] of [Recipe.run ~effort:5] under Algorithm 1
   and Algorithm 2 for every circuit of a suite, one line per circuit and
   algorithm: [<circuit> <recipe> <digest>].  The digest hashes the
   rewritten graph's [.mig] text, so any change to a rule decision, a pass
   order or a node id shows.

   Usage: recipe_digests.exe [small|all]   (default: small) *)

module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe

let () =
  let suite =
    match Sys.argv with
    | [| _ |] | [| _; "small" |] -> Suite.small_suite
    | [| _; "all" |] -> Suite.all
    | _ ->
      prerr_endline "usage: recipe_digests.exe [small|all]";
      exit 2
  in
  List.iter
    (fun (spec : Suite.spec) ->
      let g = spec.build () in
      List.iter
        (fun recipe ->
          let g' = Recipe.run recipe ~effort:5 g in
          Printf.printf "%s %s %s\n%!" spec.name (Recipe.recipe_name recipe)
            (Plim_mig.Mig_io.digest g'))
        [ Recipe.Algorithm1; Recipe.Algorithm2 ])
    suite
