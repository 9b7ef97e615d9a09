(* Gate: every library export has a caller, and every library module a
   production one.

   Reads the [.cmt]/[.cmti] files that [dune build @check] writes under
   the build root given as the only argument, and reports

   - each value a [lib/] [.mli] declares that no other compilation unit
     references (a reference from [test/] counts);
   - each [lib/] module that nothing in [lib/], [bin/], [bench/],
     [perfbench/] or [examples/] outside the module itself references.

   A value reference is an identifier whose declaration uid is the
   exported one; a module reference is any value, type, constructor,
   label, module or module-type path into it.  Values brought in by an
   [include] of a module type are conformance to that type (the
   [Dataflow] analyses passed as first-class modules), not exports, and
   are not checked.  Exits 1 when anything is reported.

   Usage: [unused_exports BUILD_ROOT]; [dune build @unused-exports]. *)

open Typedtree

let production = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]
let roots = "test" :: production

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if Sys.is_directory path then files path
         else if Filename.check_suffix name ".cmt" || Filename.check_suffix name ".cmti"
         then [ path ]
         else [])

(* A declaration site: [Item] uids name the unit they were made in. *)
let uid_key = function
  | Shape.Uid.Item { comp_unit; id } -> Some (comp_unit, id)
  | _ -> None

type export = { unit : string; name : string; loc : Location.t; uid : string * int }

let rec sig_exports unit prefix items =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd -> (
        match uid_key vd.val_val.Types.val_uid with
        | Some uid -> [ { unit; name = prefix ^ vd.val_name.txt; loc = vd.val_loc; uid } ]
        | None -> [])
      | Tsig_module
          { md_name = { txt = Some m; _ }; md_type = { mty_desc = Tmty_signature s; _ }; _ }
        ->
        sig_exports unit (prefix ^ m ^ ".") s.sig_items
      | _ -> [])
    items

(* The compilation unit a path leads into, seen through dune's wrapper
   aliases: [Hypar_core.Engine.x] is in [Hypar_core__Engine]. *)
let unit_of_path units p =
  match Path.flatten p with
  | `Contains_apply -> None
  | `Ok (id, rest) when Ident.global id -> (
    let head = Ident.name id in
    match rest with
    | m :: _ when Hashtbl.mem units (head ^ "__" ^ m) -> Some (head ^ "__" ^ m)
    | _ -> Some head)
  | `Ok _ -> None

(* [Hypar_core__Engine] is [Engine] to a reader of the source. *)
let short unit =
  match String.rindex_opt unit '_' with
  | Some i when i > 0 && unit.[i - 1] = '_' ->
    String.sub unit (i + 1) (String.length unit - i - 1)
  | _ -> unit

let type_path ty =
  match Types.get_desc ty with Types.Tconstr (p, _, _) -> Some p | _ -> None

(* Every value uid and every path head one unit's typed tree mentions. *)
let references annots =
  let uids = ref [] and paths = ref [] in
  let add_path p = paths := p :: !paths in
  let add_ty ty = Option.iter add_path (type_path ty) in
  let open Tast_iterator in
  let expr it e =
    (match e.exp_desc with
     | Texp_ident (p, _, vd) ->
       add_path p;
       Option.iter (fun k -> uids := k :: !uids) (uid_key vd.Types.val_uid)
     | Texp_construct (_, cd, _) -> add_ty cd.Types.cstr_res
     | Texp_field (_, _, ld) | Texp_setfield (_, _, ld, _) -> add_ty ld.Types.lbl_res
     | Texp_record { fields; _ } ->
       Array.iter (fun ((ld : Types.label_description), _) -> add_ty ld.lbl_res) fields
     | _ -> ());
    default_iterator.expr it e
  in
  let pat (type k) it (p : k general_pattern) =
    (match p.pat_desc with
     | Tpat_construct (_, cd, _, _) -> add_ty cd.Types.cstr_res
     | Tpat_record (fields, _) -> List.iter (fun (_, (ld : Types.label_description), _) -> add_ty ld.lbl_res) fields
     | _ -> ());
    default_iterator.pat it p
  in
  let typ it t =
    (match t.ctyp_desc with
     | Ttyp_constr (p, _, _) | Ttyp_class (p, _, _) -> add_path p
     | Ttyp_package pk -> add_path pk.pack_path
     | _ -> ());
    default_iterator.typ it t
  in
  let module_expr it m =
    (match m.mod_desc with Tmod_ident (p, _) -> add_path p | _ -> ());
    default_iterator.module_expr it m
  in
  let module_type it m =
    (match m.mty_desc with Tmty_ident (p, _) | Tmty_alias (p, _) -> add_path p | _ -> ());
    default_iterator.module_type it m
  in
  let it = { default_iterator with expr; pat; typ; module_expr; module_type } in
  (match annots with
   | Cmt_format.Implementation s -> it.structure it s
   | Cmt_format.Interface s -> it.signature it s
   | _ -> ());
  (!uids, !paths)

let generated (cmt : Cmt_format.cmt_infos) =
  (* dune's wrapper alias module, [hypar_core.ml-gen] *)
  match cmt.cmt_sourcefile with Some f -> Filename.check_suffix f "-gen" | None -> true

let () =
  let root = Sys.argv.(1) in
  let cmts =
    List.concat_map
      (fun d ->
        let dir = Filename.concat root d in
        if Sys.file_exists dir then List.map (fun path -> (d, path)) (files dir) else [])
      roots
    |> List.map (fun (d, path) -> (d, Cmt_format.read_cmt path))
    |> List.filter (fun (_, cmt) -> not (generated cmt))
  in
  let units = Hashtbl.create 64 (* lib unit -> its source file *) in
  let exports = ref [] in
  List.iter
    (fun (dir, (cmt : Cmt_format.cmt_infos)) ->
      match (dir, cmt.cmt_annots, cmt.cmt_sourcefile) with
      | "lib", Cmt_format.Interface s, Some src ->
        Hashtbl.replace units cmt.cmt_modname src;
        exports := sig_exports cmt.cmt_modname "" s.sig_items @ !exports
      | "lib", _, Some src ->
        if not (Hashtbl.mem units cmt.cmt_modname) then Hashtbl.add units cmt.cmt_modname src
      | _ -> ())
    cmts;
  let used = Hashtbl.create 4096 and reached = Hashtbl.create 64 in
  List.iter
    (fun (dir, (cmt : Cmt_format.cmt_infos)) ->
      let self = cmt.cmt_modname in
      let uids, paths = references cmt.cmt_annots in
      List.iter (fun ((u, _) as k) -> if u <> self then Hashtbl.replace used k ()) uids;
      if List.mem dir production then
        List.map fst uids @ List.filter_map (unit_of_path units) paths
        |> List.iter (fun u -> if u <> self then Hashtbl.replace reached u ()))
    cmts;
  let unused_values =
    List.filter_map
      (fun e ->
        if Hashtbl.mem used e.uid then None
        else
          Some
            (Printf.sprintf "%s:%d: value %s.%s is referenced by nothing outside its module"
               e.loc.loc_start.pos_fname e.loc.loc_start.pos_lnum (short e.unit) e.name))
      !exports
  and test_only_modules =
    Hashtbl.fold
      (fun u src acc ->
        if Hashtbl.mem reached u then acc
        else
          Printf.sprintf
            "%s: module %s has no caller in lib/, bin/, bench/, perfbench/ or examples/" src
            (short u)
          :: acc)
      units []
  in
  let findings = List.sort_uniq compare (unused_values @ test_only_modules) in
  List.iter print_endline findings;
  if findings <> [] then begin
    Printf.printf "unused-exports: %d finding(s)\n" (List.length findings);
    exit 1
  end
