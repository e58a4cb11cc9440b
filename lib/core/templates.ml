type side = Client | Server

type entry = {
  e_name : string;
  e_side : side;
  e_pred : Ir.t -> bool;
  e_emit : Ir.t -> string;
}

let bprintf = Printf.bprintf

(* ---------- small query helpers over the IR ---------- *)

let model ir = ir.Ir.ir_model
let always _ = true
let has_block ir = (model ir).Model.block
let is_global ir = (model ir).Model.global
let close_children ir = (model ir).Model.close_children
let close_remove ir = (model ir).Model.close_remove
let has_parent ir = (model ir).Model.parent <> Model.Solo
let xcparent ir = (model ir).Model.parent = Model.XCParent

let creates ir = List.filter (fun f -> Ir.is_create ir f.Ir.f_name) ir.Ir.ir_funcs
let terminals ir = List.filter (fun f -> Ir.is_terminal ir f.Ir.f_name) ir.Ir.ir_funcs

let updates ir =
  List.filter
    (fun f ->
      (not (Ir.is_create ir f.Ir.f_name))
      && (not (Ir.is_terminal ir f.Ir.f_name))
      && Ir.desc_arg_index ir f.Ir.f_name <> None)
    ir.Ir.ir_funcs

let create_with_desc_id ir =
  List.exists (fun f -> Ir.desc_arg_index ir f.Ir.f_name <> None) (creates ir)

let create_with_ret_id ir =
  List.exists (fun f -> Ir.desc_arg_index ir f.Ir.f_name = None) (creates ir)

let has_ns ir = List.exists (fun f -> Ir.ns_arg_index f <> None) (creates ir)

let has_retval_set ir =
  List.exists
    (fun f -> match f.Ir.f_retval with Some { Ast.ra_kind = `Set; _ } -> true | _ -> false)
    (updates ir)

let has_retval_accum ir =
  List.exists
    (fun f -> match f.Ir.f_retval with Some { Ast.ra_kind = `Accum; _ } -> true | _ -> false)
    (updates ir)

let has_update_meta ir =
  List.exists
    (fun f -> List.exists (fun p -> p.Ast.pa_attr = Ast.ADescData) f.Ir.f_params)
    (updates ir)

(* ---------- pattern/expression rendering ---------- *)

(* Bind each parameter positionally; descriptor-bearing and namespace
   arguments are matched as integers, tracked data as raw values, plain
   arguments are ignored. *)
let args_pattern f ~bind_plain =
  let pat p =
    match p.Ast.pa_attr with
    | Ast.ADesc | Ast.AParentDesc | Ast.ADescDataParent | Ast.ADescNs ->
        Printf.sprintf "Comp.VInt %s" p.Ast.pa_name
    | Ast.ADescData -> p.Ast.pa_name
    | Ast.APlain -> if bind_plain then p.Ast.pa_name else "_"
  in
  "[ " ^ String.concat "; " (List.map pat f.Ir.f_params) ^ " ]"

(* the [desc_data] capture list for a creation or storage registration *)
let meta_expr f =
  let fields =
    List.filter_map
      (fun p ->
        match p.Ast.pa_attr with
        | Ast.ADescData -> Some (Printf.sprintf "(%S, %s)" p.Ast.pa_name p.Ast.pa_name)
        | Ast.ADescDataParent | Ast.ADescNs ->
            Some (Printf.sprintf "(%S, Comp.VInt %s)" p.Ast.pa_name p.Ast.pa_name)
        | Ast.APlain | Ast.ADesc | Ast.AParentDesc -> None)
      f.Ir.f_params
  in
  "[ " ^ String.concat "; " fields ^ " ]"

let default_value_expr ty =
  if Ir.marshal_is_string ty then "Comp.VStr \"\"" else "Comp.VInt 0"

(* an argument expression during a recovery walk *)
let walk_arg_expr p =
  match p.Ast.pa_attr with
  | Ast.ADesc -> "Comp.VInt d.Tracker.d_server_id"
  | Ast.AParentDesc | Ast.ADescDataParent -> "Comp.VInt (wctx.Cstub.w_parent_id d)"
  | Ast.ADescNs | Ast.ADescData | Ast.APlain ->
      Printf.sprintf "(meta_or d %S (%s))" p.Ast.pa_name (default_value_expr p.Ast.pa_type)

(* ---------- client-side sections ---------- *)

let emit_prelude ir =
  Printf.sprintf
    {|[@@@ocaml.warning "-26-27-32-33-39"]

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Storage = Sg_storage.Storage

let iface = %S

let as_int = function
  | Comp.VInt i -> i
  | Comp.VBool b -> if b then 1 else 0
  | Comp.VUnit | Comp.VStr _ | Comp.VList _ -> 0

let meta_or d key default =
  match Tracker.meta d key with Some v -> v | None -> default
|}
    ir.Ir.ir_name

let arg_index_fn name sel ir =
  let buf = Buffer.create 128 in
  bprintf buf "let %s = function\n" name;
  let cases = Hashtbl.create 8 in
  List.iter
    (fun f ->
      match sel f with
      | Some i ->
          let fns = Option.value (Hashtbl.find_opt cases i) ~default:[] in
          Hashtbl.replace cases i (f.Ir.f_name :: fns)
      | None -> ())
    ir.Ir.ir_funcs;
  let idxs = Hashtbl.fold (fun i _ acc -> i :: acc) cases [] |> List.sort compare in
  List.iter
    (fun i ->
      let fns = List.rev (Hashtbl.find cases i) in
      bprintf buf "  | %s -> Some %d\n"
        (String.concat " | " (List.map (Printf.sprintf "%S") fns))
        i)
    idxs;
  bprintf buf "  | _ -> None\n";
  Buffer.contents buf

let emit_desc_arg ir =
  arg_index_fn "desc_arg" (fun f -> Ir.desc_arg_index ir f.Ir.f_name) ir

let emit_parent_arg_solo _ir = "let parent_arg _ = None\n"
let emit_parent_arg ir = arg_index_fn "parent_arg" Ir.parent_arg_index ir

(* one tracking arm for a creation function *)
let emit_create_arm ir buf f =
  let fn = f.Ir.f_name in
  bprintf buf "  | %S, %s, __ret ->\n" fn (args_pattern f ~bind_plain:false);
  (match Ir.desc_arg_index ir fn with
  | Some i ->
      let p = List.nth f.Ir.f_params i in
      bprintf buf "      let __base = %s in\n" p.Ast.pa_name
  | None -> bprintf buf "      let __base = as_int __ret in\n");
  (match Ir.ns_arg_index f with
  | Some i ->
      let p = List.nth f.Ir.f_params i in
      bprintf buf "      let __id = (%s lsl 32) lor __base in\n" p.Ast.pa_name
  | None -> bprintf buf "      let __id = __base in\n");
  (match Ir.parent_arg_index f with
  | Some i ->
      let p = List.nth f.Ir.f_params i in
      bprintf buf "      let __parent =\n";
      bprintf buf "        if %s = 0 then None\n" p.Ast.pa_name;
      bprintf buf "        else\n";
      bprintf buf "          match Tracker.find tr %s with\n" p.Ast.pa_name;
      bprintf buf "          | Some _ -> Some (Tracker.Local %s)\n" p.Ast.pa_name;
      if xcparent ir then begin
        bprintf buf "          | None -> (\n";
        bprintf buf
          "              (* XCParent: resolve the creator through the storage registry (G0) *)\n";
        bprintf buf
          "              match Storage.lookup_desc storage sim ~space:iface ~id:%s with\n"
          p.Ast.pa_name;
        bprintf buf
          "              | Some (creator, _) -> Some (Tracker.Cross { client = creator; id = %s })\n"
          p.Ast.pa_name;
        bprintf buf "              | None -> Some (Tracker.Local %s))\n" p.Ast.pa_name
      end
      else bprintf buf "          | None -> Some (Tracker.Local %s)\n" p.Ast.pa_name;
      bprintf buf "      in\n"
  | None -> bprintf buf "      let __parent = None in\n");
  bprintf buf
    "      ignore\n\
    \        (Tracker.add tr sim ~server_id:__base ?parent:__parent\n\
    \           ~state:%S ~meta:%s ~epoch __id)\n"
    (Machine.after fn) (meta_expr f)

(* one tracking arm for an update (non-create, non-terminal) function *)
let emit_update_arm machine ir buf f =
  let fn = f.Ir.f_name in
  let didx = Option.get (Ir.desc_arg_index ir fn) in
  let dname = (List.nth f.Ir.f_params didx).Ast.pa_name in
  bprintf buf "  | %S, %s, __ret -> (\n" fn (args_pattern f ~bind_plain:false);
  bprintf buf "      match Tracker.find tr %s with\n" dname;
  bprintf buf "      | None -> ()\n";
  bprintf buf "      | Some d ->\n";
  (* fault detection: only sigma-valid predecessors may transition *)
  let preds =
    List.filter
      (fun st -> Machine.sigma machine st fn <> None)
      (Machine.states machine)
  in
  (match preds with
  | [] -> bprintf buf "          Tracker.count_invalid tr;\n"
  | _ ->
      bprintf buf "          (match d.Tracker.d_state with\n";
      bprintf buf "          | %s -> ()\n"
        (String.concat " | " (List.map (Printf.sprintf "%S") preds));
      bprintf buf "          | _ -> Tracker.count_invalid tr);\n");
  bprintf buf "          Tracker.set_state tr sim d %S;\n" (Machine.after fn);
  List.iter
    (fun p ->
      if p.Ast.pa_attr = Ast.ADescData then
        bprintf buf "          Tracker.set_meta tr sim d %S %s;\n" p.Ast.pa_name
          p.Ast.pa_name)
    f.Ir.f_params;
  (match f.Ir.f_retval with
  | Some { Ast.ra_kind = `Set; ra_name; _ } ->
      bprintf buf "          Tracker.set_meta tr sim d %S __ret;\n" ra_name
  | Some { Ast.ra_kind = `Accum; ra_name; _ } ->
      bprintf buf
        "          (* the paper's FS pattern: data accumulates return values *)\n";
      bprintf buf
        "          let __cur = match Tracker.meta_int d %S with Some i -> i | None -> 0 in\n"
        ra_name;
      bprintf buf
        "          let __delta = match __ret with Comp.VInt i -> i | Comp.VStr s -> String.length s | _ -> 0 in\n";
      bprintf buf
        "          Tracker.set_meta tr sim d %S (Comp.VInt (__cur + __delta));\n"
        ra_name
  | None -> ());
  bprintf buf "          ())\n"

(* one tracking arm for a terminal function *)
let emit_terminal_arm ir buf f =
  let fn = f.Ir.f_name in
  let didx = Option.get (Ir.desc_arg_index ir fn) in
  let dname = (List.nth f.Ir.f_params didx).Ast.pa_name in
  bprintf buf "  | %S, %s, _ ->\n" fn (args_pattern f ~bind_plain:false);
  if close_children ir then begin
    bprintf buf
      "      (* C_dr: recursive revocation destroys the tracked subtree *)\n";
    bprintf buf "      let rec __kill id =\n";
    bprintf buf
      "        List.iter (fun c -> __kill c.Tracker.d_id) (Tracker.children tr id);\n";
    bprintf buf "        (match Tracker.find tr id with\n";
    bprintf buf "        | None -> ()\n";
    bprintf buf "        | Some d ->\n";
    bprintf buf "            d.Tracker.d_live <- false;\n";
    if close_remove ir then bprintf buf "            Tracker.remove tr id);\n"
    else bprintf buf "            ());\n";
    bprintf buf "        ()\n";
    bprintf buf "      in\n";
    bprintf buf "      __kill %s\n" dname
  end
  else begin
    bprintf buf "      (match Tracker.find tr %s with\n" dname;
    bprintf buf "      | None -> ()\n";
    bprintf buf "      | Some d ->\n";
    bprintf buf "          d.Tracker.d_live <- false;\n";
    if close_remove ir then
      bprintf buf "          (* Y_dr: the tracking data is deleted too *)\n";
    if close_remove ir then bprintf buf "          Tracker.remove tr %s)\n" dname
    else
      bprintf buf
        "          (* Y_dr is false: the data remains for the children *)\n          ())\n"
  end

let emit_track ir =
  let machine = Machine.build ir in
  let buf = Buffer.create 1024 in
  bprintf buf "let track ~storage sim tr ~epoch fn args ret =\n";
  bprintf buf "  let _ = storage in\n";
  bprintf buf "  match (fn, args, ret) with\n";
  List.iter (fun f -> emit_create_arm ir buf f) (creates ir);
  List.iter (fun f -> emit_update_arm machine ir buf f) (updates ir);
  List.iter (fun f -> emit_terminal_arm ir buf f) (terminals ir);
  bprintf buf "  | _ -> ()\n";
  Buffer.contents buf

(* a replay step inside a walk arm *)
let emit_walk_step ir buf fn =
  let f = Ir.func_exn ir fn in
  let args = "[ " ^ String.concat "; " (List.map walk_arg_expr f.Ir.f_params) ^ " ]" in
  if Ir.is_create ir fn && Ir.desc_arg_index ir fn = None then begin
    bprintf buf "      let __r = wctx.Cstub.w_invoke %S %s in\n" fn args;
    bprintf buf
      "      (* the recovered server assigned a fresh concrete id *)\n";
    bprintf buf "      d.Tracker.d_server_id <- as_int __r;\n"
  end
  else bprintf buf "      ignore (wctx.Cstub.w_invoke %S %s);\n" fn args

let emit_walk ir =
  let machine = Machine.build ir in
  let buf = Buffer.create 1024 in
  bprintf buf
    "(* R0: shortest-path recovery walks, one arm per recovery-equivalence\n\
    \   class of tracked states; data-restoring calls are appended (the\n\
    \   paper's \"open and lseek\"). *)\n";
  bprintf buf "let walk _sim (wctx : Cstub.walk_ctx) (d : Tracker.desc) =\n";
  bprintf buf "  match d.Tracker.d_state with\n";
  (* group states by identical plans *)
  let plans = Hashtbl.create 8 in
  List.iter
    (fun st ->
      if st <> Machine.s0 then begin
        let p = Machine.plan machine st in
        let key = (p.Machine.pl_path, p.Machine.pl_restore) in
        let sts = Option.value (Hashtbl.find_opt plans key) ~default:[] in
        Hashtbl.replace plans key (st :: sts)
      end)
    (Machine.states machine);
  let groups =
    Hashtbl.fold (fun k v acc -> (k, List.sort compare v) :: acc) plans []
    |> List.sort compare
  in
  List.iter
    (fun ((path, restore), states) ->
      bprintf buf "  | %s ->\n"
        (String.concat " | " (List.map (Printf.sprintf "%S") states));
      if path = [] && restore = [] then bprintf buf "      ()\n"
      else begin
        List.iter (fun fn -> emit_walk_step ir buf fn) path;
        List.iter (fun fn -> emit_walk_step ir buf fn) restore;
        bprintf buf "      ()\n"
      end)
    groups;
  (* unknown state: replay the shortest creation *)
  bprintf buf "  | _ ->\n";
  (match ir.Ir.ir_creates with
  | [] -> bprintf buf "      ()\n"
  | c :: _ ->
      emit_walk_step ir buf c;
      bprintf buf "      ()\n");
  Buffer.contents buf

let emit_client_config ir =
  let virtualized =
    List.filter
      (fun f ->
        (not (is_global ir)) && Ir.desc_arg_index ir f.Ir.f_name = None)
      (creates ir)
    |> List.map (fun f -> f.Ir.f_name)
  in
  let virtual_create =
    match virtualized with
    | [] -> "(fun _ -> false)"
    | fns ->
        Printf.sprintf "(function %s -> true | _ -> false)"
          (String.concat " | " (List.map (Printf.sprintf "%S") fns))
  in
  Printf.sprintf
    {|let client_config ~storage () =
  {
    Cstub.cfg_iface = iface;
    cfg_mode = `Ondemand;
    cfg_desc_arg = desc_arg;
    cfg_parent_arg = parent_arg;
    cfg_terminate_fns = [ %s ];
    cfg_d0_children = %b;
    cfg_virtual_create = %s;
    cfg_track =
      (fun sim tr ~epoch fn args ret -> track ~storage sim tr ~epoch fn args ret);
    cfg_walk = walk;
  }
|}
    (String.concat "; " (List.map (Printf.sprintf "%S") ir.Ir.ir_terminals))
    (close_children ir) virtual_create

(* ---------- server-side sections ---------- *)

let emit_create_meta ir =
  let buf = Buffer.create 256 in
  bprintf buf
    "(* G0: the storage component records each global descriptor's creator *)\n";
  bprintf buf "let create_meta fn args _ret =\n";
  bprintf buf "  match (fn, args) with\n";
  List.iter
    (fun f ->
      bprintf buf "  | %S, %s -> %s\n" f.Ir.f_name
        (args_pattern f ~bind_plain:false)
        (meta_expr f))
    (creates ir);
  bprintf buf "  | _ -> []\n";
  Buffer.contents buf

let emit_t0 _ir =
  {|(* T0: eager recovery in the post-reboot constructor — wake every
   thread suspended inside the rebooted component, through the wakeup
   function of the recovering server's server when that dependency is
   wired, directly through the kernel otherwise. *)
let boot_init_t0 ?wakeup_dep sim cid =
  List.iter
    (fun tcb ->
      match tcb.Sg_kernel.Ktcb.state with
      | Sg_kernel.Ktcb.Sleeping _ ->
          ignore (Sim.wakeup sim tcb.Sg_kernel.Ktcb.tid)
      | Sg_kernel.Ktcb.Blocked _ -> (
          match wakeup_dep with
          | Some (cell, wakeup_fn) -> (
              match !cell with
              | Some port ->
                  ignore
                    (Sg_os.Port.call port sim wakeup_fn
                       [ Comp.VInt tcb.Sg_kernel.Ktcb.tid ])
              | None -> ignore (Sim.wakeup sim tcb.Sg_kernel.Ktcb.tid))
          | None -> ignore (Sim.wakeup sim tcb.Sg_kernel.Ktcb.tid))
      | Sg_kernel.Ktcb.Runnable | Sg_kernel.Ktcb.Exited -> ())
    (Sg_kernel.Ktcb.threads_inside
       (Sim.kernel sim).Sg_kernel.Kernel.threads cid)
|}

let emit_server_config ir =
  let buf = Buffer.create 256 in
  bprintf buf "let server_config ?wakeup_dep () =\n";
  if not (has_block ir) then bprintf buf "  let _ = wakeup_dep in\n";
  bprintf buf "  {\n";
  bprintf buf "    Serverstub.ss_iface = iface;\n";
  bprintf buf "    ss_global = %b;\n" (is_global ir);
  bprintf buf "    ss_desc_arg = desc_arg;\n";
  bprintf buf "    ss_parent_arg = parent_arg;\n";
  bprintf buf "    ss_create_fns = [ %s ];\n"
    (String.concat "; " (List.map (Printf.sprintf "%S") ir.Ir.ir_creates));
  if is_global ir then bprintf buf "    ss_create_meta = create_meta;\n"
  else bprintf buf "    ss_create_meta = (fun _ _ _ -> []);\n";
  if has_block ir then
    bprintf buf "    ss_boot_init = (fun sim cid -> boot_init_t0 ?wakeup_dep sim cid);\n"
  else bprintf buf "    ss_boot_init = Serverstub.no_boot_init;\n";
  bprintf buf "  }\n";
  Buffer.contents buf

(* ---------- the catalogue ---------- *)

let nested name side pred = { e_name = name; e_side = side; e_pred = pred; e_emit = (fun _ -> "") }

let catalogue =
  [
    (* client stub *)
    { e_name = "client/prelude"; e_side = Client; e_pred = always; e_emit = emit_prelude };
    { e_name = "client/desc-arg"; e_side = Client; e_pred = always; e_emit = emit_desc_arg };
    {
      e_name = "client/parent-arg/solo";
      e_side = Client;
      e_pred = (fun ir -> not (has_parent ir));
      e_emit = emit_parent_arg_solo;
    };
    {
      e_name = "client/parent-arg/linked";
      e_side = Client;
      e_pred = has_parent;
      e_emit = emit_parent_arg;
    };
    { e_name = "client/track"; e_side = Client; e_pred = always; e_emit = emit_track };
    nested "client/track/create/id-from-desc" Client create_with_desc_id;
    nested "client/track/create/id-from-retval" Client create_with_ret_id;
    nested "client/track/create/namespaced" Client has_ns;
    nested "client/track/create/meta-capture" Client (fun ir ->
        List.exists
          (fun f ->
            List.exists
              (fun p ->
                match p.Ast.pa_attr with
                | Ast.ADescData | Ast.ADescDataParent | Ast.ADescNs -> true
                | Ast.APlain | Ast.ADesc | Ast.AParentDesc -> false)
              f.Ir.f_params)
          (creates ir));
    nested "client/track/create/parent-local" Client (fun ir ->
        (model ir).Model.parent = Model.Parent);
    nested "client/track/create/parent-cross" Client xcparent;
    nested "client/track/update/transition-check" Client (fun ir -> updates ir <> []);
    nested "client/track/update/meta-args" Client has_update_meta;
    nested "client/track/update/retval-set" Client has_retval_set;
    nested "client/track/update/retval-accum" Client has_retval_accum;
    nested "client/track/terminal/basic" Client (fun ir -> terminals ir <> []);
    nested "client/track/terminal/children" Client close_children;
    nested "client/track/terminal/remove" Client close_remove;
    nested "client/track/terminal/keep-for-children" Client (fun ir ->
        not (close_remove ir));
    { e_name = "client/walk"; e_side = Client; e_pred = always; e_emit = emit_walk };
    nested "client/walk/parent-first" Client has_parent;
    nested "client/walk/block-hold-reacquire" Client (fun ir -> ir.Ir.ir_block_holds <> []);
    nested "client/walk/data-restore" Client (fun ir ->
        List.exists
          (fun st ->
            (Machine.plan (Machine.build ir) st).Machine.pl_restore <> [])
          (Machine.states (Machine.build ir)));
    nested "client/walk/server-id-remap" Client create_with_ret_id;
    { e_name = "client/config"; e_side = Client; e_pred = always; e_emit = emit_client_config };
    nested "client/config/d0-children" Client close_children;
    nested "client/config/on-demand" Client always;
    nested "client/config/virtual-ids" Client (fun ir ->
        (not (is_global ir)) && create_with_ret_id ir);
    (* server stub *)
    { e_name = "server/create-meta"; e_side = Server; e_pred = is_global; e_emit = emit_create_meta };
    nested "server/g0-einval-replay" Server is_global;
    nested "server/g0-upcall-creator" Server is_global;
    nested "server/g1-resource-data" Server (fun ir -> (model ir).Model.resc_data);
    { e_name = "server/t0"; e_side = Server; e_pred = has_block; e_emit = emit_t0 };
    nested "server/t0/dep-wakeup" Server has_block;
    nested "server/t0/kernel-wakeup" Server has_block;
    nested "server/no-eager" Server (fun ir -> not (has_block ir));
    { e_name = "server/config"; e_side = Server; e_pred = always; e_emit = emit_server_config };
  ]

let applicable ir side =
  List.filter (fun e -> e.e_side = side && e.e_pred ir) catalogue

let count = List.length catalogue
