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
   they are matched by the top-level name they are bound to.  An export
   that forwards its own option [?l] as [?l] or [~l] to another export
   supplies it only as far as its own [?l] is supplied.

   It checks the record fields and variant constructors of the types
   those interfaces declare too.  A field is used where code reads it:
   [e.f], or a record pattern that names it.  Building a record does not
   read it ([{ f = v }], [{ r with f = v }], [r.f <- v]).  A constructor
   is used where code builds it; a match arm does not.  Both are keyed by
   defining unit, type name and name, so the defining unit's own [lib/]
   code counts; a type that re-exports another's representation
   ([type s = M.t = ...]) counts as the original.  Blind spot: polymorphic
   [=], [compare], [Hashtbl.hash] and [Marshal] read every field without
   naming it, so before deleting a flagged field, look for such uses of
   its record.

   Exits 1 when an export, option, field or constructor has no
   production use and ALLOWLIST does not name it, or when an ALLOWLIST
   line names anything else (one production now uses, or one that is
   gone).  ALLOWLIST holds one entry a line: [Library.Module.value],
   [Library.Module.value?label], [Library.Module.type.field] or
   [Library.Module.type.Constructor], then the reason, which is
   required; [#] starts a comment line.

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

(* [Plim_util__Vec] is module [Vec] of the wrapped library [plim_util];
   a path through the library's alias module reads [Plim_util__.Vec]. *)
let display_name modname = Str.global_replace (Str.regexp "__\\.?") "." modname

(* Who uses an export, one of its optional parameters, a field or a
   constructor. *)
type use = { mutable prod : bool; mutable test : bool }

let no_use () = { prod = false; test = false }

type export = {
  name : string;
  loc : Location.t;
  use : use;
  options : (string * use) list;  (** label, use *)
}

let exports : (Shape.Uid.t, export) Hashtbl.t = Hashtbl.create 1024
let by_name : (string, export) Hashtbl.t = Hashtbl.create 1024

(* A field or a constructor, keyed by (defining unit, type, name).  The
   type of an inline record's fields is [type.Constructor]. *)
type member = { m_name : string; m_loc : Location.t; m_use : use }

let fields : (string * string * string, member) Hashtbl.t = Hashtbl.create 512
let constructors : (string * string * string, member) Hashtbl.t = Hashtbl.create 512

(* [type s = M.t = ...]: (unit, s) to the (unit, type) it re-exports. *)
let aliases : (string * string, string * string) Hashtbl.t = Hashtbl.create 16

(* An option forwarded under its own label: (the forwarding export's
   option, the callee's). *)
let forwards : (use * use) list ref = ref []

let rec optional_labels ty =
  match Types.get_desc ty with
  | Types.Tarrow (Optional l, _, ret, _) -> l :: optional_labels ret
  | Tarrow (_, _, ret, _) | Tpoly (ret, _) -> optional_labels ret
  | _ -> []

let add_members table ~unit ~prefix ~typ =
  List.iter (fun (name, loc) ->
      Hashtbl.replace table (unit, typ, name)
        { m_name = prefix ^ "." ^ typ ^ "." ^ name; m_loc = loc; m_use = no_use () })

let add_type ~unit ~prefix td =
  let typ = td.typ_name.txt in
  let add_fields typ lds =
    add_members fields ~unit ~prefix ~typ (List.map (fun ld -> (ld.ld_name.txt, ld.ld_loc)) lds)
  in
  match (td.typ_manifest, td.typ_kind) with
  | Some { ctyp_desc = Ttyp_constr (p, _, _); _ }, (Ttype_variant _ | Ttype_record _) ->
      let m = display_name (Path.name p) in
      let i = String.rindex m '.' in
      Hashtbl.replace aliases (unit, typ)
        (String.sub m 0 i, String.sub m (i + 1) (String.length m - i - 1))
  | _, Ttype_record lds -> add_fields typ lds
  | _, Ttype_variant cds ->
      add_members constructors ~unit ~prefix ~typ
        (List.map (fun cd -> (cd.cd_name.txt, cd.cd_loc)) cds);
      List.iter
        (fun cd ->
          match cd.cd_args with
          | Cstr_record lds -> add_fields (typ ^ "." ^ cd.cd_name.txt) lds
          | Cstr_tuple _ -> ())
        cds
  | _ -> ()

let rec add_signature ~unit prefix sg =
  List.iter
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let name = prefix ^ "." ^ vd.val_name.txt in
          let options =
            List.map (fun l -> (l, no_use ())) (optional_labels vd.val_val.val_type)
          in
          let e = { name; loc = vd.val_loc; use = no_use (); options } in
          Hashtbl.replace exports vd.val_val.val_uid e;
          Hashtbl.replace by_name name e
      | Tsig_type (_, tds) -> List.iter (add_type ~unit ~prefix) tds
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature sg; _ }; _ }
        ->
          add_signature ~unit (prefix ^ "." ^ m) sg
      | _ -> ())
    sg.sig_items

let mark ~production u = if production then u.prod <- true else u.test <- true

(* The field or constructor [name] of the type [ty], declared with [uid]. *)
let member table uid ty name =
  let type_name =
    match Types.get_desc ty with
    | Tconstr (Pextra_ty (p, Pcstr_ty c), _, _) -> Some (Path.last p ^ "." ^ c)
    | Tconstr (p, _, _) -> Some (Path.last p)
    | _ -> None
  in
  match (uid, type_name) with
  | Shape.Uid.Item { comp_unit; _ }, Some typ ->
      let rec original k =
        match Hashtbl.find_opt aliases k with Some k -> original k | None -> k
      in
      let unit, typ = original (display_name comp_unit, typ) in
      Hashtbl.find_opt table (unit, typ, name)
  | _ -> None

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

(* The labels an application supplies, each with the argument: [~l:v]
   passed to an optional parameter arrives as [Some v]. *)
let supplied args =
  List.filter_map
    (fun (label, arg) ->
      match (label, arg) with
      | (Asttypes.Labelled l | Optional l), Some e when not (filled_in e) ->
          let e =
            match e.exp_desc with
            | Texp_construct (_, { cstr_name = "Some"; _ }, [ v ]) -> v
            | _ -> e
          in
          Some (l, e)
      | _ -> None)
    args

(* OCaml 5.1 numbers the uids of a [.ml] and of its [.mli] from the same
   counter, so a unit's references to its own values can collide with its
   exports: they never count as callers of the export, and for options
   they are matched by name instead. *)
let references ~modname ~production annots =
  let names = Ident.Tbl.create 64 in
  let export_named path =
    Option.bind (local_name names path) (fun n ->
        Hashtbl.find_opt by_name (display_name modname ^ "." ^ n))
  in
  (* The export whose definition the walk is in. *)
  let current = ref None in
  (* Where the current export forwards its own option [l]: the use of
     that option. *)
  let forwarded l (arg : expression) =
    match (!current, arg.exp_desc) with
    | Some e, Texp_ident (Pident id, _, _) when Ident.name id = l -> List.assoc_opt l e.options
    | _ -> None
  in
  (* [args] is what the reference supplies; [None] for every option. *)
  let note path (vd : Types.value_description) args =
    let e =
      match vd.val_uid with
      | Shape.Uid.Item { comp_unit; _ } when comp_unit = modname -> export_named path
      | uid ->
          let e = Hashtbl.find_opt exports uid in
          Option.iter (fun e -> mark ~production e.use) e;
          e
    in
    Option.iter
      (fun e ->
        List.iter
          (fun (l, u) ->
            match args with
            | None -> mark ~production u
            | Some args -> (
                match List.assoc_opt l args with
                | None -> ()
                | Some arg -> (
                    match forwarded l arg with
                    | Some outer -> forwards := (outer, u) :: !forwards
                    | None -> mark ~production u)))
          e.options)
      e
  in
  let mark_member table uid ty name =
    Option.iter (fun m -> mark ~production m.m_use) (member table uid ty name)
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
        | Texp_field (_, _, ld) -> mark_member fields ld.lbl_uid ld.lbl_res ld.lbl_name
        | Texp_construct (_, cd, _) ->
            mark_member constructors cd.cstr_uid cd.cstr_res cd.cstr_name
        | _ -> ());
        Tast_iterator.default_iterator.expr sub e
  in
  let pat : type k. Tast_iterator.iterator -> k general_pattern -> unit =
   fun sub p ->
    (match p.pat_desc with
    | Tpat_record (lds, _) ->
        List.iter (fun (_, ld, _) -> mark_member fields ld.Types.lbl_uid ld.lbl_res ld.lbl_name) lds
    | _ -> ());
    Tast_iterator.default_iterator.pat sub p
  in
  let structure_item sub item =
    match item.str_desc with
    | Tstr_value (_, vbs) ->
        let outer = !current in
        List.iter
          (fun vb ->
            current :=
              (match vb.vb_pat.pat_desc with
              | Tpat_var (id, _) -> export_named (Pident id)
              | _ -> None);
            sub.Tast_iterator.value_binding sub vb)
          vbs;
        current := outer
    | _ -> Tast_iterator.default_iterator.structure_item sub item
  in
  let it = { Tast_iterator.default_iterator with expr; pat; structure_item } in
  match annots with
  | Cmt_format.Implementation str ->
      bind_structure "" names str;
      it.structure it str
  | _ -> ()

(* An option used only where it is forwarded is used as far as the
   option that forwards it. *)
let rec settle () =
  let changed = ref false in
  List.iter
    (fun (outer, inner) ->
      if outer.prod && not inner.prod then (inner.prod <- true; changed := true);
      if outer.test && not inner.test then (inner.test <- true; changed := true))
    !forwards;
  if !changed then settle ()

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

type kind = Export | Option | Field | Constructor

(* A kind's summary label, what one entry is, and who uses one. *)
let describe = function
  | Export -> ("exports", "an export", "caller")
  | Option -> ("options", "an option", "caller")
  | Field -> ("fields", "a field", "reader")
  | Constructor -> ("constructors", "a constructor", "builder")

(* An entry the gate reports: an export ([Faulty.create]), an option
   ([Faulty.create?faults]), a field ([Campaign.outcome.write_total]) or
   a constructor ([Leveling.t.Start_gap]). *)
type unused = { entry : string; kind : kind; at : Location.t; tests : bool }

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
        | Cmt_format.Interface sg ->
            let unit = display_name cmt.cmt_modname in
            add_signature ~unit unit sg
        | _ -> ())
    all;
  List.iter
    (fun (d, f) ->
      if Filename.check_suffix f ".cmt" then
        let cmt = Cmt_format.read_cmt f in
        references ~modname:cmt.cmt_modname ~production:(d <> "test") cmt.cmt_annots)
    all;
  settle ();
  let all_exports = Hashtbl.fold (fun _ e acc -> e :: acc) exports [] in
  let members table = Hashtbl.fold (fun _ m acc -> m :: acc) table [] in
  let all_fields = members fields and all_constructors = members constructors in
  let unused_of kind entry at u =
    if u.prod then None else Some { entry; kind; at; tests = u.test }
  in
  let sorted l = List.sort (fun a b -> compare a.entry b.entry) l in
  let unused_members kind l =
    sorted (List.filter_map (fun m -> unused_of kind m.m_name m.m_loc m.m_use) l)
  in
  let unused_exports =
    sorted (List.filter_map (fun e -> unused_of Export e.name e.loc e.use) all_exports)
  in
  let unused_options =
    sorted
      (List.concat_map
         (fun e ->
           List.filter_map (fun (l, u) -> unused_of Option (e.name ^ "?" ^ l) e.loc u) e.options)
         all_exports)
  in
  let unused =
    unused_exports @ unused_options
    @ unused_members Field all_fields
    @ unused_members Constructor all_constructors
  in
  let allowed = read_allowlist allowlist in
  let kind_of name =
    let capitalized =
      match String.rindex_opt name '.' with
      | Some i when i + 1 < String.length name ->
          Char.uppercase_ascii name.[i + 1] = name.[i + 1]
      | _ -> false
    in
    if String.contains name '?' then Option
    else if capitalized then Constructor
    else if List.exists (fun m -> m.m_name = name) all_fields then Field
    else Export
  in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.printf fmt
  in
  List.iter
    (fun (n, name, reason) ->
      let kind = kind_of name in
      if not (List.exists (fun u -> u.entry = name && u.kind = kind) unused) then
        let _, what, user = describe kind in
        fail "%s:%d: %s is not %s without production %ss; remove the line\n" allowlist n name
          what user
      else if reason = "" then fail "%s:%d: %s needs a reason\n" allowlist n name)
    allowed;
  List.iter
    (fun u ->
      if not (List.exists (fun (_, name, _) -> name = u.entry) allowed) then
        let _, _, user = describe u.kind in
        fail "%s:%d: %s has no production %s (%s); delete it or allowlist it with a reason\n"
          u.at.loc_start.pos_fname u.at.loc_start.pos_lnum u.entry user
          (if u.tests then "tests only" else "no " ^ user ^ " at all"))
    unused;
  let count p l = List.length (List.filter p l) in
  let summary kind what total =
    let unused = List.filter (fun u -> u.kind = kind) unused in
    let tests = count (fun u -> u.tests) unused in
    let label, _, user = describe kind in
    Printf.printf "%s: %d %s, %d without a production %s (%d tests only, %d none), %d allowlisted\n"
      label total what (List.length unused) user tests
      (List.length unused - tests)
      (count (fun (_, name, _) -> kind_of name = kind) allowed)
  in
  summary Export "values in lib/ interfaces" (List.length all_exports);
  summary Option "optional parameters"
    (List.fold_left (fun n e -> n + List.length e.options) 0 all_exports);
  summary Field "record fields in lib/ interfaces" (List.length all_fields);
  summary Constructor "variant constructors in lib/ interfaces" (List.length all_constructors);
  if !failures > 0 then exit 1
