(** Kernel thread table.

    The COMPOSITE kernel holds thread structures (the paper notes the
    kernel state is "mainly just page tables, capability tables, and
    threads", §II-E) and is trusted: faults are never injected here. The
    recovery machinery *reflects* on this table — e.g. the rebooted
    scheduler learns which threads exist and which were blocked inside it
    (paper §II-C, §III-D step 5). *)

type tid = int

type tstate =
  | Runnable
  | Blocked of { in_component : int }
      (** blocked while executing inside the given component *)
  | Sleeping of { until_ns : int; in_component : int }
      (** timed block (timer manager), woken by the clock *)
  | Exited

type tcb = {
  tid : tid;
  name : string;
  mutable prio : int;  (** 0 is highest priority *)
  mutable state : tstate;
  regs : Regfile.t;
  mutable stack : int list;
      (** invocation stack of component ids, innermost first; thread
          migration pushes the server on entry and pops on return *)
  mutable divert : int option;
      (** set by the booter on threads that were blocked inside a
          micro-rebooted component: holds the rebooted component's id so
          that, on next dispatch, the thread is diverted back to the
          client stub interposed on *that* component instead of being
          resumed *)
}

type t

val create : unit -> t
val spawn : t -> name:string -> prio:int -> home:int -> tcb
(** [home] is the component the thread starts executing in. *)

val find : t -> tid -> tcb option

val all : t -> tcb list
(** All threads ever spawned (including exited ones), in ascending tid
    order. Backed by an append-only array maintained at spawn time — no
    per-call fold-and-sort. *)

val enter_component : tcb -> int -> unit
val leave_component : tcb -> unit
val current_component : tcb -> int option
(** Innermost component the thread is executing in. *)

val in_stack : tcb -> int -> bool
(** Whether the component appears anywhere on the thread's invocation
    stack; such threads must be diverted when that component is
    micro-rebooted. *)

val threads_inside : t -> int -> tcb list
(** All live threads with the component anywhere on their stack. *)
