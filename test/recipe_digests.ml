(* Prints the [Mig_io.digest] of [Recipe.run ~effort:5] under Algorithm 1
   and Algorithm 2 for every circuit of a suite, one line per circuit and
   algorithm: [<circuit> <recipe> <digest>].  The digest hashes the
   rewritten graph's [.mig] text, so any change to a rule decision, a pass
   order or a node id shows.  Each recipe runs twice on the same graph,
   and the program exits 1 if the two digests differ: a call must not
   depend on state an earlier call left behind.

   [sources] prints, instead, the source graphs themselves: one line
   [<circuit> <nodes> <digest>] per circuit of the full and the small
   suite, with [Mig.num_nodes] and the [Mig_io.digest] of [spec.build ()].
   It pins the suite build (generators and [Frontend.expand]) byte for
   byte.

   Usage: recipe_digests.exe [small|all|sources]   (default: small) *)

module Suite = Plim_benchgen.Suite
module Recipe = Plim_rewrite.Recipe

let sources () =
  List.iter
    (fun (spec : Suite.spec) ->
      let g = spec.build () in
      Printf.printf "%s %d %s\n%!" spec.name (Plim_mig.Mig.num_nodes g)
        (Plim_mig.Mig_io.digest g))
    (Suite.all @ Suite.small_suite)

let recipes suite =
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

let () =
  match Sys.argv with
  | [| _ |] | [| _; "small" |] -> recipes Suite.small_suite
  | [| _; "all" |] -> recipes Suite.all
  | [| _; "sources" |] -> sources ()
  | _ ->
    prerr_endline "usage: recipe_digests.exe [small|all|sources]";
    exit 2
