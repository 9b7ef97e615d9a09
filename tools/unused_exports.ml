(* Gate: every library export and every library module has a production
   caller.

   Reads the [.cmt]/[.cmti] files that [dune build @check] writes under
   the build root given as the first argument, and reports

   - each value a [lib/] [.mli] declares that nothing in [lib/], [bin/],
     [bench/], [perfbench/] or [examples/] outside its module references,
     unless the allow-list names it;
   - each [lib/] module that nothing there outside the module itself
     references;
   - each allow-list entry that no longer names an export, whose export
     now has a production caller, or that no test in [test/] calls.

   A reference from [test/] does not count: a value only tests call is
   deleted, kept behind its interface, moved to [test/], or named in the
   allow-list as a deliberate test seam.  The allow-list (second
   argument) holds one [Module.value reason] entry per line; blank lines
   and lines starting with [#] are ignored, and an entry without a reason
   is an error.

   A value reference is an identifier whose declaration uid is the
   exported one; a module reference is any value, type, constructor,
   label, module or module-type path into it.  Values brought in by an
   [include] of a module type are conformance to that type (the
   [Dataflow] analyses passed as first-class modules), not exports, and
   are not checked.  Exits 1 when anything is reported.

   Usage: [unused_exports BUILD_ROOT ALLOW_LIST]; [dune build
   @unused-exports]. *)

open Typedtree

let production = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

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

(* [Hypar_core__Result_table] is [Result_table] to a reader of the
   source: the module name follows the last [__]. *)
let short unit =
  let rec last_sep i =
    if i < 1 then None else if unit.[i] = '_' && unit.[i - 1] = '_' then Some i else last_sep (i - 1)
  in
  match last_sep (String.length unit - 1) with
  | Some i -> String.sub unit (i + 1) (String.length unit - i - 1)
  | None -> unit

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

(* [(name, line)] per entry of the allow-list file. *)
let allow_list path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (n, line) ->
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i when String.trim (String.sub line i (String.length line - i)) <> "" ->
             Some (String.sub line 0 i, n)
           | _ ->
             Printf.printf "%s:%d: allow-list entry %s has no reason\n" path n line;
             exit 1)

let () =
  let root = Sys.argv.(1) and allow_path = Sys.argv.(2) in
  let allowed = allow_list allow_path in
  let read d =
    let dir = Filename.concat root d in
    (if Sys.file_exists dir then files dir else [])
    |> List.map (fun path -> (d, Cmt_format.read_cmt path))
    |> List.filter (fun (_, cmt) -> not (generated cmt))
  in
  let cmts = List.concat_map read production in
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
    (fun (_, (cmt : Cmt_format.cmt_infos)) ->
      let self = cmt.cmt_modname in
      let uids, paths = references cmt.cmt_annots in
      List.iter (fun ((u, _) as k) -> if u <> self then Hashtbl.replace used k ()) uids;
      List.map fst uids @ List.filter_map (unit_of_path units) paths
      |> List.iter (fun u -> if u <> self then Hashtbl.replace reached u ()))
    cmts;
  let tested = Hashtbl.create 1024 in
  List.iter
    (fun (_, (cmt : Cmt_format.cmt_infos)) ->
      List.iter (fun k -> Hashtbl.replace tested k ()) (fst (references cmt.cmt_annots)))
    (read "test");
  let qualified e = short e.unit ^ "." ^ e.name in
  let unused_values =
    List.filter_map
      (fun e ->
        if Hashtbl.mem used e.uid || List.mem_assoc (qualified e) allowed then None
        else
          Some
            (Printf.sprintf "%s:%d: value %s has no caller in lib/, bin/, bench/, perfbench/ or examples/"
               e.loc.loc_start.pos_fname e.loc.loc_start.pos_lnum (qualified e)))
      !exports
  and stale_entries =
    List.filter_map
      (fun (name, n) ->
        match List.find_opt (fun e -> qualified e = name) !exports with
        | None -> Some (Printf.sprintf "%s:%d: allow-list entry %s is not a lib/ export" allow_path n name)
        | Some e when Hashtbl.mem used e.uid ->
          Some (Printf.sprintf "%s:%d: allow-list entry %s has a production caller" allow_path n name)
        | Some e when not (Hashtbl.mem tested e.uid) ->
          Some (Printf.sprintf "%s:%d: allow-list entry %s has no caller in test/" allow_path n name)
        | Some _ -> None)
      allowed
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
  let findings = List.sort_uniq compare (unused_values @ test_only_modules @ stale_entries) in
  List.iter print_endline findings;
  if findings <> [] then begin
    Printf.printf "unused-exports: %d finding(s)\n" (List.length findings);
    exit 1
  end
