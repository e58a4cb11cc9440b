(** The interpreted stub backend.

    Builds runnable client and server stub configurations directly from
    the compiled IR. Semantically this executes exactly the code the
    template backend ({!Codegen}) emits; the generated OCaml is a
    specialization of these interpretations (see DESIGN.md §5 — OCaml
    cannot compile-and-link emitted source at runtime in this sealed
    environment, so the interpreter is what runs inside the simulator,
    charged at the SuperGlue tracking cost). *)

val client_config :
  ?mode:[ `Ondemand | `Eager ] ->
  storage:Sg_storage.Storage.t -> Ir.t -> Sg_c3.Cstub.config
(** Generic descriptor tracking (creation ids from [desc()] arguments or
    returned values, optionally namespaced by [desc_ns]; [desc_data]
    argument capture; return-value set/accumulate updates; terminal
    handling with C_dr child revocation and Y_dr record removal; parent
    resolution, cross-component via the storage registry) and the
    state-machine recovery walk computed by {!Machine.plan}. A call
    arriving in a state with no σ edge is counted in the client's own
    tracker ({!Sg_c3.Tracker.count_invalid}, paper §III-B). *)

val server_config :
  ?wakeup_dep:Sg_os.Port.t option ref * string ->
  Ir.t ->
  Sg_c3.Serverstub.config
(** G0 creator registration and EINVAL-recovery for global descriptors,
    and the T0 post-reboot constructor: when the interface blocks
    ([B_r]), threads suspended inside the rebooted component are woken —
    through [wakeup_dep] (the wakeup function of the recovering server's
    own server, e.g. the scheduler's) when given, directly through the
    kernel otherwise. *)
