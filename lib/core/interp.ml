module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Port = Sg_os.Port
module Ktcb = Sg_kernel.Ktcb
module Kernel = Sg_kernel.Kernel
module Tracker = Sg_c3.Tracker
module Cstub = Sg_c3.Cstub
module Serverstub = Sg_c3.Serverstub
module Storage = Sg_storage.Storage
module Smap = Map.Make (String)

let as_int = function
  | Comp.VInt i -> i
  | Comp.VBool b -> if b then 1 else 0
  | Comp.VUnit | Comp.VStr _ | Comp.VList _ -> 0

let arg_int args i =
  match List.nth_opt args i with Some v -> as_int v | None -> 0

(* ---------- staging ---------- *)

type fn = {
  fn_desc : int option;
  fn_parent : int option;
  fn_ns : int option;
  fn_create : bool;
  fn_terminal : bool;
  fn_virtual_create : bool;
  fn_after : Machine.state;
  fn_preds : Machine.state list;  (** states with a σ edge on this function *)
  fn_capture : (int * string) list;  (** tracked arguments, by position *)
  fn_retval : Ast.retval_annot option;
}

type step = Cstub.walk_ctx -> Tracker.desc -> unit

type staged = {
  st_ir : Ir.t;
  st_fns : fn Smap.t;
  st_walks : step list Smap.t;  (** per state: [pl_path @ pl_restore] *)
  st_fallback : step list;  (** unknown states: the first creation *)
}

let stage_fn ir machine (f : Ir.func) =
  let name = f.Ir.f_name in
  let fn_desc = Ir.desc_arg_index ir name in
  let fn_create = Ir.is_create ir name in
  {
    fn_desc;
    fn_parent = Ir.parent_arg_index f;
    fn_ns = Ir.ns_arg_index f;
    fn_create;
    fn_terminal = Ir.is_terminal ir name;
    (* local descriptors with server-assigned ids are virtualized;
       global ones keep the server's (storage-reseeded) ids *)
    fn_virtual_create =
      (not ir.Ir.ir_model.Model.global) && fn_create && fn_desc = None;
    fn_after = Machine.after name;
    fn_preds =
      List.filter
        (fun s -> Machine.sigma machine s name <> None)
        (Machine.states machine);
    fn_capture =
      List.concat
        (List.mapi
           (fun i p ->
             match p.Ast.pa_attr with
             | Ast.ADescData | Ast.ADescDataParent | Ast.ADescNs ->
                 [ (i, p.Ast.pa_name) ]
             | Ast.APlain | Ast.ADesc | Ast.AParentDesc -> [])
           f.Ir.f_params);
    fn_retval = f.Ir.f_retval;
  }

(* One replayed call of a recovery walk, its argument sources resolved. *)
let stage_step (f : Ir.func) fi : step =
  let name = f.Ir.f_name in
  let sources =
    List.map
      (fun p ->
        match p.Ast.pa_attr with
        | Ast.ADesc -> fun _ d -> Comp.VInt d.Tracker.d_server_id
        | Ast.AParentDesc | Ast.ADescDataParent ->
            fun wctx d -> Comp.VInt (wctx.Cstub.w_parent_id d)
        | Ast.ADescNs | Ast.ADescData | Ast.APlain -> (
            let key = p.Ast.pa_name in
            let default =
              if Ir.marshal_is_string p.Ast.pa_type then Comp.VStr ""
              else Comp.VInt 0
            in
            fun _ d ->
              match Tracker.meta d key with Some v -> v | None -> default))
      f.Ir.f_params
  in
  let args wctx d = List.map (fun source -> source wctx d) sources in
  if fi.fn_create && fi.fn_desc = None then (fun wctx d ->
    (* the recovered server assigned a fresh concrete id *)
    d.Tracker.d_server_id <- as_int (wctx.Cstub.w_invoke name (args wctx d)))
  else fun wctx d -> ignore (wctx.Cstub.w_invoke name (args wctx d))

let stage ir machine =
  (* the first declaration of a name wins, as in [Ir.func] *)
  let by_name g =
    List.fold_right
      (fun f m -> Smap.add f.Ir.f_name (g f) m)
      ir.Ir.ir_funcs Smap.empty
  in
  let fns = by_name (stage_fn ir machine) in
  let steps = by_name (fun f -> stage_step f (Smap.find f.Ir.f_name fns)) in
  let walk fns = List.map (fun fn -> Smap.find fn steps) fns in
  {
    st_ir = ir;
    st_fns = fns;
    st_walks =
      List.fold_left
        (fun m s ->
          let p = Machine.plan machine s in
          Smap.add s (walk (p.Machine.pl_path @ p.Machine.pl_restore)) m)
        Smap.empty (Machine.states machine);
    st_fallback =
      (match ir.Ir.ir_creates with [] -> [] | c :: _ -> walk [ c ]);
  }

(* A stub hook answered from the staged record of the called function,
   [default] for a function the interface does not declare. The hooks run
   on every call, so the lookup allocates nothing. *)
let hook ~default field st fn =
  match Smap.find fn st.st_fns with
  | fi -> field fi
  | exception Not_found -> default

let desc_arg = hook ~default:None (fun fi -> fi.fn_desc)
let parent_arg = hook ~default:None (fun fi -> fi.fn_parent)

let rec mem_state s = function
  | [] -> false
  | s' :: rest -> String.equal s s' || mem_state s rest

(* The tracked-data capture: every desc_data-attributed argument present
   in the call, under its declared name, in parameter order. *)
let rec capture caps i args =
  match (caps, args) with
  | [], _ | _, [] -> []
  | (j, key) :: caps', v :: args' ->
      if i = j then (key, v) :: capture caps' (i + 1) args'
      else capture caps (i + 1) args'

(* ---------- the client stub ---------- *)

let parent_of st storage sim tr fi args =
  match fi.fn_parent with
  | None -> None
  | Some i -> (
      let p = arg_int args i in
      if p = 0 then None
      else
        match Tracker.find tr p with
        | Some _ -> Some (Tracker.Local p)
        | None -> (
            match st.st_ir.Ir.ir_model.Model.parent with
            | Model.XCParent -> (
                (* the parent was created by another component: the
                   storage component's creator registry names it (G0) *)
                match
                  Storage.lookup_desc storage sim ~space:st.st_ir.Ir.ir_name ~id:p
                with
                | Some (creator, _) ->
                    Some (Tracker.Cross { client = creator; id = p })
                | None -> Some (Tracker.Local p))
            | Model.Parent | Model.Solo -> Some (Tracker.Local p)))

let rec kill_desc model tr d =
  if model.Model.close_children then
    List.iter (kill_desc model tr) (Tracker.children tr d.Tracker.d_id);
  d.Tracker.d_live <- false;
  (* Y_dr: delete the tracking data itself, unless children may need it *)
  if model.Model.close_remove then Tracker.remove tr d.Tracker.d_id

let track st storage sim tr ~epoch fn args ret =
  match Smap.find fn st.st_fns with
  | exception Not_found -> ()
  | fi -> (
      if fi.fn_create then begin
        let base =
          match fi.fn_desc with Some i -> arg_int args i | None -> as_int ret
        in
        let id =
          match fi.fn_ns with
          | Some i -> (arg_int args i lsl 32) lor base
          | None -> base
        in
        let parent = parent_of st storage sim tr fi args in
        ignore
          (Tracker.add tr sim ~server_id:base ?parent ~state:fi.fn_after
             ~meta:(capture fi.fn_capture 0 args) ~epoch id)
      end
      else
        match fi.fn_desc with
        | None -> ()
        | Some i -> (
            match Tracker.find tr (arg_int args i) with
            | None -> ()
            | Some d ->
                if fi.fn_terminal then kill_desc st.st_ir.Ir.ir_model tr d
                else begin
                  (* fault detection: flag transitions outside sigma *)
                  if not (mem_state d.Tracker.d_state fi.fn_preds) then
                    Tracker.count_invalid tr;
                  Tracker.set_state tr sim d fi.fn_after;
                  List.iter
                    (fun (k, v) -> Tracker.set_meta tr sim d k v)
                    (capture fi.fn_capture 0 args);
                  match fi.fn_retval with
                  | Some { Ast.ra_kind = `Set; ra_name; _ } ->
                      Tracker.set_meta tr sim d ra_name ret
                  | Some { Ast.ra_kind = `Accum; ra_name; _ } ->
                      let cur =
                        Option.value (Tracker.meta_int d ra_name) ~default:0
                      in
                      let delta =
                        match ret with
                        | Comp.VInt i -> i
                        | Comp.VStr s -> String.length s
                        | Comp.VBool _ | Comp.VUnit | Comp.VList _ -> 0
                      in
                      Tracker.set_meta tr sim d ra_name (Comp.VInt (cur + delta))
                  | None -> ()
                end))

let walk st wctx d =
  let steps =
    Option.value ~default:st.st_fallback
      (Smap.find_opt d.Tracker.d_state st.st_walks)
  in
  List.iter (fun step -> step wctx d) steps

let client_config ?(mode = `Ondemand) ~storage st =
  let ir = st.st_ir in
  {
    Cstub.cfg_iface = ir.Ir.ir_name;
    cfg_mode = mode;
    cfg_desc_arg = desc_arg st;
    cfg_parent_arg = parent_arg st;
    cfg_terminate_fns = ir.Ir.ir_terminals;
    cfg_d0_children = ir.Ir.ir_model.Model.close_children;
    cfg_virtual_create = hook ~default:false (fun fi -> fi.fn_virtual_create) st;
    cfg_track =
      (fun sim tr ~epoch fn args ret -> track st storage sim tr ~epoch fn args ret);
    cfg_walk = (fun _sim wctx d -> walk st wctx d);
  }

(* ---------- the server stub ---------- *)

(* T0: wake every thread suspended inside the rebooted component —
   through the wakeup function of the recovering server's server when
   the dependency is wired, directly through the kernel otherwise. *)
let t0 ?wakeup_dep () sim cid =
  List.iter
    (fun tcb ->
      match tcb.Ktcb.state with
      | Ktcb.Sleeping _ -> ignore (Sim.wakeup sim tcb.Ktcb.tid)
      | Ktcb.Blocked _ -> (
          match wakeup_dep with
          | Some (cell, wakeup_fn) -> (
              match !cell with
              | Some port ->
                  ignore
                    (Port.call port sim wakeup_fn [ Comp.VInt tcb.Ktcb.tid ])
              | None -> ignore (Sim.wakeup sim tcb.Ktcb.tid))
          | None -> ignore (Sim.wakeup sim tcb.Ktcb.tid))
      | Ktcb.Runnable | Ktcb.Exited -> ())
    (Ktcb.threads_inside (Sim.kernel sim).Kernel.threads cid)

let server_config ?wakeup_dep st =
  let ir = st.st_ir in
  let model = ir.Ir.ir_model in
  {
    Serverstub.ss_iface = ir.Ir.ir_name;
    ss_global = model.Model.global;
    ss_desc_arg = desc_arg st;
    ss_parent_arg = parent_arg st;
    ss_create_fns = ir.Ir.ir_creates;
    ss_create_meta =
      (fun fn args _ret ->
        hook ~default:[] (fun fi -> capture fi.fn_capture 0 args) st fn);
    ss_boot_init =
      (if model.Model.block then t0 ?wakeup_dep ()
       else Serverstub.no_boot_init);
  }
