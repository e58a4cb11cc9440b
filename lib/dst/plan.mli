(** Injection plans: the fault half of a DST scenario (DESIGN.md §3.9).

    Faults are anchored structurally — the n-th dispatch into a service,
    the n-th storage write — not at virtual times, so a plan replays
    identically against its op sequence and shrinks cleanly: removing
    one fault never changes when the remaining ones fire. Each fault
    fires at most once (a [Double] twice). *)

type fault =
  | Flip of {
      fl_service : string;
      fl_nth : int;
          (** fires at the first dispatch into the service whose
              1-based counter is [>= fl_nth] *)
      fl_reg : string;  (** register name, {!Sg_kernel.Reg.to_string} *)
      fl_bit : int;
      fl_at_pm : int;
          (** flip offset within the operation's usage window, per
              mille of its duration (0–1000) *)
    }
      (** a chosen register bit-flip, classified and escalated exactly
          like the periodic injector ({!Sg_swifi.Injector.apply_flip}) *)
  | Storage_write of { sw_nth : int }
      (** transient fault on the n-th charged storage write
          ({!Sg_storage.Storage.arm_write_faults}) *)
  | Crash of { cr_service : string; cr_nth : int }
      (** clean detected fail-stop (detector ["dst-crash"]) *)
  | Double of { db_service : string; db_nth : int; db_gap : int }
      (** crash-during-recovery: a first fail-stop at [db_nth], then a
          second one [db_gap] dispatches later — which lands inside the
          recovery the first crash triggered (detector ["dst-double"]) *)
  | Perturb of {
      pb_iface : string;
      pb_fn : string;
      pb_field : string;
          (** a parameter name (corrupt that argument), ["ret"] (corrupt
              the reply) or a delivery pseudo-field: ["@drop"], ["@dup"],
              ["@reorder"] *)
      pb_nth : int;
          (** fires at the first invocation of [(pb_iface, pb_fn)] whose
              1-based system-wide counter is [>= pb_nth] *)
      pb_every : bool;
          (** sustained adversary: fire on {e every} nth eligible
              invocation ({!Sg_c3.Adversary.Every}) instead of once *)
      pb_walk : bool;
          (** recovery-racing adversary: only recovery-walk replay
              invocations are eligible ({!Sg_c3.Adversary.In_walk}) —
              the perturbation lands while a walk is in flight *)
    }
      (** the interface-edge adversary ({!Sg_c3.Adversary}): perturb
          invocations of one interface function. Never drawn by
          {!generate} — adversary campaigns ([superglue-dst adversary],
          [superglue-dst race]) construct it explicitly to validate the
          {!Sg_analysis.Taint} and {!Sg_analysis.Race} verdict tables.
          At most one [Perturb] per plan takes effect. *)

type config = {
  pc_flip : int;
  pc_storage : int;
  pc_crash : int;
  pc_double : int;  (** integer category weights *)
  pc_max_faults : int;  (** plan length is uniform in [1, pc_max_faults] *)
  pc_nth_range : int;  (** dispatch anchors are uniform in [1, range] *)
}

val default_config : config
val focus_config : config
(** Crash-heavy, short-range: what mutant-hunting campaigns use, since a
    recovery bug only shows once recovery runs. *)

val generate :
  config:config -> services:string list -> Sg_util.Rng.t -> fault list
(** Draws a plan whose service-targeted faults land on [services] (the
    services the op sequence actually touches). Empty when [services]
    is empty. Raises [Invalid_argument] when no weight is positive. *)

val fault_service : fault -> string option
val fault_label : fault -> string

val fault_to_json : fault -> Sg_util.Json.t
val fault_of_json : Sg_util.Json.t -> fault
(** @raise Sg_util.Json.Parse_error on malformed input. *)
