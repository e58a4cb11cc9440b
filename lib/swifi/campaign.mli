(** The fault-injection campaign of paper §V-D (Table II).

    For each target service, its §V-B workload runs repeatedly while the
    SWIFI injector periodically flips register bits in threads executing
    inside the target. After an unrecoverable fault the whole system is
    rebooted (a fresh simulator) and the campaign resumes, until the
    requested number of faults has been injected. {!Pardriver.run} is
    that loop; this module provides one chunk of it ({!run_chunk}) and
    the row arithmetic.

    A detected fail-stop fault counts as *recovered* only when the
    workload run it occurred in subsequently completes with all
    postconditions intact — the paper's "continued execution that abides
    by the target component and workload specifications". *)

type row = {
  r_iface : string;
  r_injected : int;
  r_recovered : int;
  r_segfault : int;  (** not recovered: system segfault *)
  r_propagated : int;  (** not recovered: fault propagated to a client *)
  r_other : int;  (** not recovered: hang or failed postconditions *)
  r_undetected : int;
  r_reboots : int;  (** micro-reboots performed across the campaign *)
  r_first_access : Sg_obs.Hist.t;
      (** reboot-to-first-successful-access latency distribution, merged
          across chunks with {!Sg_obs.Hist.merge} *)
  r_episodes : Sg_obs.Episode.t list;
      (** stitched recovery episodes in campaign order, chunk-local
          timestamps; empty unless the run was asked for [episodes] *)
}

val empty : string -> row
(** A zero row for the given interface. *)

val add : row -> row -> row
(** Pointwise sum of the counts ([r_iface] taken from the left operand).
    Associative and order-independent, which is what lets {!Pardriver}
    merge chunk rows computed on different domains. *)

val run_chunk :
  ?on_event:(Sg_obs.Event.t -> unit) ->
  ?episodes:bool ->
  mode:Sg_components.Sysbuild.mode ->
  iface:string ->
  seed:int ->
  period_ns:int ->
  iters:int ->
  budget:int ->
  cmon_period_ns:int option ->
  unit ->
  int * row
(** One workload execution on a fresh simulator with the injector armed
    for at most [budget] faults; returns the number actually injected
    and the accounted row. Chunks are deterministic functions of
    [(mode, iface, seed)] plus the injection parameters, and share no
    mutable state — {!Pardriver} runs them on separate domains. *)

val activation_ratio : row -> float
(** |F_a| / |F_a ∪ F_u| — the fraction of injected faults activated. *)

val success_rate : row -> float
(** |F_r| / |F_a| — recovered over activated. *)

val bound_violations : bound_ns:int -> row -> Sg_obs.Episode.t list
(** Complete episodes of the row whose span exceeds [bound_ns] — the
    counterexamples [--verify-bounds] checks a {!Sg_analysis.Wcr} static
    bound against. Requires the row to have been produced with
    [~episodes:true]; incomplete episodes are skipped. *)

val pp_row : Format.formatter -> row -> unit
