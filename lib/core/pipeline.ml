module Mig = Plim_mig.Mig
module Recipe = Plim_rewrite.Recipe
module Program = Plim_isa.Program
module Stats = Plim_stats.Stats
module Profile = Plim_obs.Profile

type config = {
  rewriting : Recipe.recipe;
  effort : int;
  selection : Select.policy;
  allocation : Alloc.strategy;
  max_write : int option;
  dest_min_write : bool;
}

let naive =
  { rewriting = Recipe.No_rewriting;
    effort = 0;
    selection = Select.In_order;
    allocation = Alloc.Lifo;
    max_write = None;
    dest_min_write = false }

let dac16 =
  { naive with rewriting = Recipe.Algorithm1; effort = 5; selection = Select.Release_first }

let min_write = { dac16 with allocation = Alloc.Min_write }

let endurance_rewrite = { min_write with rewriting = Recipe.Algorithm2 }

let endurance_full = { endurance_rewrite with selection = Select.Level_first }

let with_cap w config = { config with max_write = Some w }

let config_name config =
  let uncapped = { config with max_write = None } in
  let base =
    if uncapped = naive then "naive"
    else if uncapped = dac16 then "dac16"
    else if uncapped = min_write then "min-write"
    else if uncapped = endurance_rewrite then "endurance-rewrite"
    else if uncapped = endurance_full then "endurance-full"
    else
      Printf.sprintf "%s/%s/%s"
        (Recipe.recipe_name config.rewriting)
        (Select.policy_name config.selection)
        (match config.allocation with
        | Alloc.Lifo -> "lifo"
        | Alloc.Fifo -> "fifo"
        | Alloc.Min_write -> "min-write")
  in
  match config.max_write with
  | None -> base
  | Some w -> Printf.sprintf "%s+cap%d" base w

let pp_config ppf config = Format.pp_print_string ppf (config_name config)

type result = {
  program : Program.t;
  rewritten : Mig.t;
  write_summary : Stats.summary;
  config : config;
}

let compile_rewritten ?is_faulty config g =
  Profile.span "pipeline.compile_rewritten" @@ fun () ->
  let alloc =
    Alloc.create ?max_write:config.max_write ?is_faulty ~strategy:config.allocation ()
  in
  let ctx = Translate.make_ctx ~dest_min_write:config.dest_min_write g alloc in
  Profile.span "pipeline.place_inputs" (fun () -> Translate.place_inputs ctx);
  let sel =
    Profile.span "pipeline.select_setup" (fun () ->
        Select.create ~policy:config.selection g ~pending:ctx.pending)
  in
  ctx.Translate.on_pending_one <- Select.child_pending_dropped_to_one sel;
  Profile.span "pipeline.translate" (fun () ->
      let rec loop () =
        match Select.pop sel with
        | None -> ()
        | Some id ->
          Translate.compute_node ctx id;
          Select.computed sel id;
          loop ()
      in
      loop ());
  let po_cells =
    Profile.span "pipeline.outputs" (fun () -> Translate.materialize_outputs ctx)
  in
  let pi_cells =
    Array.init (Mig.num_inputs g) (fun pi ->
        (Mig.input_name g pi, ctx.Translate.pi_cell.(pi)))
  in
  let program =
    Program.of_code
      ~code:(Array.sub ctx.Translate.code 0 ctx.Translate.len)
      ~num_cells:(Alloc.total_allocated alloc)
      ~pi_cells ~po_cells
  in
  (* a MIG with no inputs and no outputs allocates nothing: the summary of
     an empty write-count array is the all-zero summary *)
  { program;
    rewritten = g;
    write_summary = Stats.summarize (Alloc.write_counts alloc);
    config }

let compile ?is_faulty config mig =
  Profile.span "pipeline.compile" @@ fun () ->
  let g =
    Profile.span "pipeline.rewrite" (fun () ->
        Recipe.run config.rewriting ~effort:config.effort mig)
  in
  compile_rewritten ?is_faulty config g
