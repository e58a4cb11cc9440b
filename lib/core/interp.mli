(** The interpreted stub backend, staged once per interface.

    {!stage} turns one compiled interface (its IR and its state machine,
    both already in {!Compiler.artifact}) into immutable per-function
    records and per-state recovery walks: argument positions, the
    create/terminal/virtual-create flags, the shared ["after:<fn>"]
    state, the σ-predecessor states, the tracked-argument captures and
    the return-value rule, and for every state the replayed calls of its
    {!Machine.plan} with their argument sources resolved. The client and
    server stub configurations built from a [staged] value answer every
    stub hook with one lookup in an immutable map; no IR search, σ-edge
    scan or plan computation happens on a call or a system build.

    Semantically this executes exactly the code the template backend
    ({!Codegen}) emits — the generated OCaml is a specialization of
    these interpretations, and the two are differentially tested over
    workloads and DST seeds (DESIGN.md §5.1). A program cannot compile
    and link emitted OCaml source at run time, so the interpreter is what
    runs inside the simulator (and on mutated specs), charged at the
    SuperGlue tracking cost. *)

type staged
(** One interface, staged. Immutable: any domain may share it. *)

val stage : Ir.t -> Machine.t -> staged
(** Pure. The machine must be the one built from the same IR
    ([artifact.a_machine]). *)

val client_config :
  ?mode:[ `Ondemand | `Eager ] ->
  storage:Sg_storage.Storage.t -> staged -> Sg_c3.Cstub.config
(** Generic descriptor tracking (creation ids from [desc()] arguments or
    returned values, optionally namespaced by [desc_ns]; [desc_data]
    argument capture; return-value set/accumulate updates; terminal
    handling with C_dr child revocation and Y_dr record removal; parent
    resolution, cross-component via the storage registry) and the
    state-machine recovery walk computed by {!Machine.plan}; a state the
    machine does not know walks the first creation. A call arriving in a
    state with no σ edge is counted in the client's own tracker
    ({!Sg_c3.Tracker.count_invalid}, paper §III-B). A function the
    interface does not declare is not tracked. *)

val server_config :
  ?wakeup_dep:Sg_os.Port.t option ref * string ->
  staged ->
  Sg_c3.Serverstub.config
(** G0 creator registration (with the same tracked-argument capture as
    the client stub) and EINVAL-recovery for global descriptors, and the
    T0 post-reboot constructor: when the interface blocks ([B_r]),
    threads suspended inside the rebooted component are woken — through
    [wakeup_dep] (the wakeup function of the recovering server's own
    server, e.g. the scheduler's) when given, directly through the
    kernel otherwise. *)
