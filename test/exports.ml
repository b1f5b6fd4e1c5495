(* The unused-export gate.  Reads the typed trees the compiler leaves in
   [.cmti]/[.cmt] files under ROOT (dune's build directory) and matches
   every value a [lib/] interface exports, by its uid, against every
   value reference in the other compilation units.  A reference from
   [bin/], [bench/], [perfbench/], [examples/] or another [lib/] module
   is a production caller; one from [test/] is a test caller.

   Exits 1 when an export has no production caller and ALLOWLIST does
   not name it, or when an ALLOWLIST line names anything else (a value
   production now calls, or one that is gone).  ALLOWLIST holds one
   export a line, [Library.Module.value reason]; the reason is required,
   and [#] starts a comment line.

   Usage: exports.exe ROOT ALLOWLIST *)

open Typedtree

let production_dirs = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let rec files dir acc =
  Array.fold_left
    (fun acc name ->
      let path = Filename.concat dir name in
      if Sys.is_directory path then files path acc
      else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
      then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* [Plim_util__Vec] is module [Vec] of the wrapped library [plim_util]. *)
let display_name modname = Str.global_replace (Str.regexp_string "__") "." modname

type export = { name : string; loc : Location.t; mutable prod : bool; mutable test : bool }

let exports : (Shape.Uid.t, export) Hashtbl.t = Hashtbl.create 1024

let rec add_signature prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = prefix ^ "." ^ vd.val_name.txt in
          Hashtbl.replace exports vd.val_val.val_uid
            { name; loc = vd.val_loc; prod = false; test = false }
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
          add_signature (prefix ^ "." ^ m) sg
      | _ -> ())
    sg.sig_items

(* OCaml 5.1 numbers the uids of a [.ml] and of its [.mli] from the same
   counter, so a unit's references to its own values can collide with its
   exports; only references from other units count. *)
let references ~modname ~production annots =
  let note (vd : Types.value_description) =
    match vd.val_uid with
    | Shape.Uid.Item { comp_unit; _ } when comp_unit = modname -> ()
    | uid -> (
        match Hashtbl.find_opt exports uid with
        | Some e -> if production then e.prod <- true else e.test <- true
        | None -> ())
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (_, _, vd) -> note vd
    | Texp_letop { let_; ands; _ } -> List.iter (fun b -> note b.bop_op_val) (let_ :: ands)
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match annots with Cmt_format.Implementation str -> it.structure it str | _ -> ()

let read_allowlist path =
  let ic = open_in path in
  let rec loop n acc =
    match input_line ic with
    | exception End_of_file ->
        close_in ic;
        List.rev acc
    | line ->
        let line = String.trim line in
        if line = "" || line.[0] = '#' then loop (n + 1) acc
        else
          let name, reason =
            match String.index_opt line ' ' with
            | Some i ->
                (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
            | None -> (line, "")
          in
          loop (n + 1) ((n, name, reason) :: acc)
  in
  loop 1 []

let () =
  if Array.length Sys.argv <> 3 then (
    prerr_endline "usage: exports.exe ROOT ALLOWLIST";
    exit 2);
  let root = Sys.argv.(1) and allowlist = Sys.argv.(2) in
  let all =
    List.concat_map
      (fun d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir then List.map (fun f -> (d, f)) (files dir []) else [])
      ("test" :: production_dirs)
  in
  List.iter
    (fun (d, f) ->
      if d = "lib" && Filename.check_suffix f ".cmti" then
        let cmt = Cmt_format.read_cmt f in
        match cmt.cmt_annots with
        | Cmt_format.Interface sg -> add_signature (display_name cmt.cmt_modname) sg
        | _ -> ())
    all;
  List.iter
    (fun (d, f) ->
      if Filename.check_suffix f ".cmt" then
        let cmt = Cmt_format.read_cmt f in
        references ~modname:cmt.cmt_modname ~production:(d <> "test") cmt.cmt_annots)
    all;
  let unused =
    Hashtbl.fold (fun _ e acc -> if e.prod then acc else e :: acc) exports []
    |> List.sort (fun a b -> compare a.name b.name)
  in
  let allowed = read_allowlist allowlist in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  List.iter
    (fun (n, name, reason) ->
      if not (List.exists (fun e -> e.name = name) unused) then
        fail "%s:%d: %s is not an export without production callers; remove the line\n"
          allowlist n name
      else if reason = "" then fail "%s:%d: %s needs a reason\n" allowlist n name)
    allowed;
  List.iter
    (fun e ->
      if not (List.exists (fun (_, name, _) -> name = e.name) allowed) then
        fail "%s:%d: %s has no production caller (%s); delete it or allowlist it with a reason\n"
          e.loc.loc_start.pos_fname e.loc.loc_start.pos_lnum e.name
          (if e.test then "tests only" else "no caller at all"))
    unused;
  let count p = List.length (List.filter p unused) in
  Printf.printf
    "exports: %d values in lib/ interfaces, %d without a production caller (%d tests only, %d \
     none), %d allowlisted\n"
    (Hashtbl.length exports) (List.length unused)
    (count (fun e -> e.test))
    (count (fun e -> not e.test))
    (List.length allowed);
  if !failures > 0 then exit 1
