(* The unused-export gate.  Reads the typed trees the compiler leaves in
   [.cmti]/[.cmt] files under ROOT (dune's build directory) and matches
   every value a [lib/] interface exports, by its uid, against every
   value reference in the other compilation units.  A reference from
   [bin/], [bench/], [perfbench/], [examples/] or another [lib/] module
   is a production caller; one from [test/] is a test caller.

   It checks the optional parameters of those exports the same way.  An
   application supplies an option when it passes [~l], [?l] or [~l:v];
   a reference that is not applied (the function passed as a value)
   supplies every option.  Calls inside the defining unit count too:
   they are matched by the top-level name they are bound to.

   Exits 1 when an export or an option has no production caller and
   ALLOWLIST does not name it, or when an ALLOWLIST line names anything
   else (one production now uses, or one that is gone).  ALLOWLIST
   holds one entry a line, [Library.Module.value reason] for an export
   and [Library.Module.value?label reason] for an option; the reason is
   required, and [#] starts a comment line.

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

(* Who uses an export, or one of its optional parameters. *)
type use = { mutable prod : bool; mutable test : bool }

type export = {
  name : string;
  loc : Location.t;
  use : use;
  options : (string * use) list;  (** label, use *)
}

let exports : (Shape.Uid.t, export) Hashtbl.t = Hashtbl.create 1024
let by_name : (string, export) Hashtbl.t = Hashtbl.create 1024

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) | Tpoly (ret, _) -> optional_labels ret
  | _ -> []

let rec add_signature prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = prefix ^ "." ^ vd.val_name.txt in
          let options =
            List.map
              (fun l -> (l, { prod = false; test = false }))
              (optional_labels vd.val_val.val_type)
          in
          let e = { name; loc = vd.val_loc; use = { prod = false; test = false }; options } in
          Hashtbl.replace exports vd.val_val.val_uid e;
          Hashtbl.replace by_name name e
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
          add_signature (prefix ^ "." ^ m) sg
      | _ -> ())
    sg.sig_items

let mark ~production u = if production then u.prod <- true else u.test <- true

(* The names a unit binds at its top level, and in the structures of its
   submodules: [run], or [Race.edges]. *)
let rec bind_structure prefix names str =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              List.iter
                (fun id -> Ident.Tbl.replace names id (prefix ^ Ident.name id))
                (pat_bound_idents vb.vb_pat))
            vbs
      | Tstr_module { mb_id = Some id; mb_expr; _ } ->
          let m = prefix ^ Ident.name id in
          Ident.Tbl.replace names id m;
          let rec structure me =
            match me.mod_desc with
            | Tmod_structure s -> bind_structure (m ^ ".") names s
            | Tmod_constraint (me, _, _, _) -> structure me
            | _ -> ()
          in
          structure mb_expr
      | _ -> ())
    str.str_items

let rec local_name names = function
  | Path.Pident id -> Ident.Tbl.find_opt names id
  | Pdot (p, s) -> Option.map (fun m -> m ^ "." ^ s) (local_name names p)
  | _ -> None

(* OCaml 5.1 fills an omitted optional parameter of a full application in
   with a [None] located nowhere; it is no argument the caller wrote. *)
let filled_in (e : expression) =
  match e.exp_desc with
  | Texp_construct (_, { cstr_name = "None"; _ }, []) -> e.exp_loc = Location.none
  | _ -> false

let supplied args =
  List.filter_map
    (fun (label, arg) ->
      match (label, arg) with
      | (Asttypes.Labelled l | Optional l), Some e when not (filled_in e) -> Some l
      | _ -> None)
    args

(* OCaml 5.1 numbers the uids of a [.ml] and of its [.mli] from the same
   counter, so a unit's references to its own values can collide with its
   exports: they never count as callers of the export, and for options
   they are matched by name instead. *)
let references ~modname ~production annots =
  let names = Ident.Tbl.create 64 in
  (* [labels] is what the reference supplies; [None] for every option. *)
  let note path (vd : Types.value_description) labels =
    let e =
      match vd.val_uid with
      | Shape.Uid.Item { comp_unit; _ } when comp_unit = modname ->
          Option.bind (local_name names path) (fun n ->
              Hashtbl.find_opt by_name (display_name modname ^ "." ^ n))
      | uid ->
          let e = Hashtbl.find_opt exports uid in
          Option.iter (fun e -> mark ~production e.use) e;
          e
    in
    Option.iter
      (fun e ->
        List.iter
          (fun (l, u) ->
            match labels with
            | Some ls when not (List.mem l ls) -> ()
            | _ -> mark ~production u)
          e.options)
      e
  in
  let expr sub e =
    match e.exp_desc with
    | Texp_apply ({ exp_desc = Texp_ident (path, _, vd); _ }, args) ->
        note path vd (Some (supplied args));
        List.iter (fun (_, arg) -> Option.iter (sub.Tast_iterator.expr sub) arg) args
    | _ ->
        (match e.exp_desc with
        | Texp_ident (path, _, vd) -> note path vd None
        | Texp_letop { let_; ands; _ } ->
            List.iter (fun b -> note b.bop_op_path b.bop_op_val None) (let_ :: ands)
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  match annots with
  | Cmt_format.Implementation str ->
      bind_structure "" names str;
      it.structure it str
  | _ -> ()

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

(* An entry the gate reports: an export ([Faulty.create]) or an option
   ([Faulty.create?faults]). *)
type unused = { entry : string; at : Location.t; tests : bool }

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
  let all_exports = Hashtbl.fold (fun _ e acc -> e :: acc) exports [] in
  let unused_of entry at u = if u.prod then None else Some { entry; at; tests = u.test } in
  let sorted l = List.sort (fun a b -> compare a.entry b.entry) l in
  let unused = sorted (List.filter_map (fun e -> unused_of e.name e.loc e.use) all_exports) in
  let unused_options =
    sorted
      (List.concat_map
         (fun e ->
           List.filter_map
             (fun (l, u) -> unused_of (e.name ^ "?" ^ l) e.loc u)
             e.options)
         all_exports)
  in
  let allowed = read_allowlist allowlist in
  let is_option name = String.contains name '?' in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  List.iter
    (fun (n, name, reason) ->
      let kind, pool =
        if is_option name then ("an option", unused_options) else ("an export", unused)
      in
      if not (List.exists (fun u -> u.entry = name) pool) then
        fail "%s:%d: %s is not %s without production callers; remove the line\n" allowlist n
          name kind
      else if reason = "" then fail "%s:%d: %s needs a reason\n" allowlist n name)
    allowed;
  List.iter
    (fun u ->
      if not (List.exists (fun (_, name, _) -> name = u.entry) allowed) then
        fail "%s:%d: %s has no production caller (%s); delete it or allowlist it with a reason\n"
          u.at.loc_start.pos_fname u.at.loc_start.pos_lnum u.entry
          (if u.tests then "tests only" else "no caller at all"))
    (unused @ unused_options);
  let count p l = List.length (List.filter p l) in
  let summary what unused ~options =
    let tests = count (fun u -> u.tests) unused in
    Printf.printf "%s, %d without a production caller (%d tests only, %d none), %d allowlisted\n"
      what (List.length unused) tests
      (List.length unused - tests)
      (count (fun (_, name, _) -> is_option name = options) allowed)
  in
  summary
    (Printf.sprintf "exports: %d values in lib/ interfaces" (List.length all_exports))
    unused ~options:false;
  summary
    (Printf.sprintf "options: %d optional parameters"
       (List.fold_left (fun n e -> n + List.length e.options) 0 all_exports))
    unused_options ~options:true;
  if !failures > 0 then exit 1
