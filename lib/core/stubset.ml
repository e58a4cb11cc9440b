module Sysbuild = Sg_components.Sysbuild
module Tracker = Sg_c3.Tracker

(* staged once, when the module initialises, from the machines the
   compiler already built; immutable afterwards, so any domain may read
   it *)
let builtins =
  List.map
    (fun name ->
      let a = Compiler.builtin name in
      (name, Interp.stage a.Compiler.a_ir a.Compiler.a_machine))
    Compiler.builtin_names

let staged name =
  match List.assoc_opt name builtins with
  | Some st -> st
  | None -> invalid_arg ("Stubset.staged: unknown interface " ^ name)

let stubset_of ?mode ~name staged storage =
  {
    Sysbuild.st_name = name;
    st_flavor = Tracker.Superglue;
    st_client = (fun ~iface -> Interp.client_config ?mode ~storage (staged iface));
    st_server =
      (fun ~iface ~wakeup_dep -> Interp.server_config ?wakeup_dep (staged iface));
  }

let stubset = stubset_of ~name:"superglue" staged
let mode = Sysbuild.Stubbed stubset
let stubset_eager = stubset_of ~mode:`Eager ~name:"superglue-eager" staged
let mode_eager = Sysbuild.Stubbed stubset_eager
