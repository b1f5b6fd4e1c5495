(* Prints the [Mig_io.digest] of [Recipe.run ~effort:5] under Algorithm 1
   and Algorithm 2 for every circuit of a suite, one line per circuit and
   algorithm: [<circuit> <recipe> <digest>].  The digest hashes the
   rewritten graph's [.mig] text, so any change to a rule decision, a pass
   order or a node id shows.  Each recipe runs twice on the same graph,
   and the program exits 1 if the two digests differ: a call must not
   depend on state an earlier call left behind.

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
  let digest recipe g = Plim_mig.Mig_io.digest (Recipe.run recipe ~effort:5 g) in
  List.iter
    (fun (spec : Suite.spec) ->
      let g = spec.build () in
      List.iter
        (fun recipe ->
          let d = digest recipe g in
          Printf.printf "%s %s %s\n%!" spec.name (Recipe.recipe_name recipe) d;
          let again = digest recipe g in
          if not (String.equal d again) then begin
            Printf.eprintf "%s %s: a second run gives %s\n" spec.name
              (Recipe.recipe_name recipe) again;
            exit 1
          end)
        [ Recipe.Algorithm1; Recipe.Algorithm2 ])
    suite
