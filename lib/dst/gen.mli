(** Seed-deterministic workload-operation generation (DESIGN.md §3.9).

    A generated workload is a list of self-contained operations over the
    six system services, interpreted sequentially by {!Exec}. Every draw
    comes from the explicit {!Sg_util.Rng.t} in a fixed order, so the
    sequence is a pure function of (mix, rng state) and a replay
    artifact needs only the seed. Mix knobs are integer weights, which
    compare exactly across platforms. *)

type op =
  | Sched_pingpong of { rounds : int }
      (** a helper thread wakes the driver through [sched_wakeup] while
          the driver blocks with [sched_blk], [rounds] times *)
  | Mm_cycle of { fanout : int }
      (** grant a page, alias it into the other application [fanout]
          times, then revoke — expecting [fanout + 1] mappings gone *)
  | Fs_open of { path : int }  (** pool path index, collision-prone *)
  | Fs_write of { path : int; byte : int }
  | Fs_read of { path : int }  (** checked against the model byte *)
  | Fs_close of { path : int }
  | Lock_cycle of { cycles : int; holds : int }
      (** driver and a contender thread race one lock; the critical
          section is held across [holds] reschedules *)
  | Evt_chain of { triggers : int }
      (** cross-component chain: driver (app1) creates the parent, a
          waiter in app2 splits a child off it and waits; the driver
          triggers from app1 (XCParent, G0, U0 territory) *)
  | Timer_tick of { periods : int; period_ns : int }
  | Desc_burst of { count : int }
      (** open [count] distinct RamFS paths at once — driving the live
          descriptor table against the interface's [desc_table_cap] —
          then release them all *)
  | Restart of { service : string }
      (** inject a clean fail-stop crash ("dst-restart") at the next
          dispatch into [service], then touch it once so recovery runs *)

type mix = {
  mx_sched : int;
  mx_mm : int;
  mx_fs : int;
  mx_lock : int;
  mx_evt : int;
  mx_timer : int;
  mx_burst : int;
  mx_restart : int;
  mx_paths : int;
      (** RamFS path-pool size: 2 makes open/write/read collisions the
          common case *)
  mx_contention : int;  (** upper bound on lock hold length, in yields *)
}
(** Integer op-mix weights; a category with weight 0 never appears. *)

val default_mix : mix
val focus_mix : string -> mix
(** A mix concentrated on the named service (mutant-hunting campaigns),
    with a trickle of the others for cross-service interaction. *)

val generate : mix:mix -> Sg_util.Rng.t -> len:int -> op list
(** [len] operations drawn left to right from the generator. Raises
    [Invalid_argument] when no weight is positive. *)

val op_service : op -> string
(** The service the operation primarily exercises. *)

val services : op list -> string list
(** Sorted distinct services touched by the sequence. *)

val op_label : op -> string
val path_name : int -> string
(** Pool index to RamFS file name. *)

val op_to_json : op -> Sg_util.Json.t
val op_of_json : Sg_util.Json.t -> op
(** @raise Sg_util.Json.Parse_error on malformed input. *)
