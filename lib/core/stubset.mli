(** The SuperGlue stub set: compiler-produced stubs for the six system
    interfaces, pluggable into {!Sg_components.Sysbuild}.

    This is the paper's deliverable in runnable form — where the C³
    configuration wires hand-written stub modules, this wires the
    configurations the SuperGlue compiler derives from the declarative
    .sgidl specifications, charged at the SuperGlue tracking cost. *)

val stubset : Sg_storage.Storage.t -> Sg_components.Sysbuild.stubset

val mode : Sg_components.Sysbuild.mode
(** [Stubbed stubset] — pass to {!Sg_components.Sysbuild.build}. *)

val stubset_eager : Sg_storage.Storage.t -> Sg_components.Sysbuild.stubset
(** Ablation variant: on a fault, every tracked descriptor of the client
    interface is recovered immediately at the faulting thread's priority,
    instead of lazily at each accessor's own priority (T1). The paper's
    timing discussion (§III-C, citing the C³ schedulability analysis)
    argues on-demand recovery properly prioritizes recovery work; the
    [ablation] benchmark quantifies the interference difference. *)

val mode_eager : Sg_components.Sysbuild.mode

val staged : string -> Interp.staged
(** The builtin interface's interpreter, staged from its
    {!Compiler.builtin} artifact. All
    six are staged once, when the module initialises, so the result is
    shared and immutable. Raises [Invalid_argument] for an unknown name. *)

val stubset_of :
  ?mode:[ `Ondemand | `Eager ] -> name:string -> (string -> Interp.staged) ->
  Sg_storage.Storage.t -> Sg_components.Sysbuild.stubset
(** [stubset_of ~name staged] wires the interpreted stubs of [staged
    iface] for every interface, under the configuration name [name]
    ([stubset] is [stubset_of ~name:"superglue" staged]). *)
