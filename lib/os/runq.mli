(** Indexed run-queue primitives for the dispatcher hot path.

    The discrete-event dispatcher makes one scheduling decision per
    fiber switch; at campaign scale (thousands of SWIFI chunks, each a
    full workload run) that decision must not cost a pass over every
    thread. Both queues are binary min-heaps:

    - the ready queue is keyed by the scheduler's [(prio, last_run, tid)]
      total order, so pop is its exact lexicographic minimum;
    - the sleeper queue is keyed by [(until_ns, tid)], so the earliest
      timed wakeup is a peek.

    Keys are immutable snapshots taken at push time; the simulator only
    re-keys a fiber while it holds it out of the queue, so entries never
    go stale in place. Sleeper entries are invalidated lazily by a
    per-fiber generation counter (see {!Sim}). *)

(** Growable-array binary min-heap with [O(log n)] push/pop and [O(1)]
    peek. Not stable: equal keys pop in unspecified order — the
    scheduler's keys are made total (tid last) precisely so this never
    matters. *)
module type S = sig
  type key
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> key -> 'a -> unit
  val peek : 'a t -> (key * 'a) option
  val pop : 'a t -> (key * 'a) option
end

(** Ready queue: [(prio, last_run, tid)], lexicographic. *)
module Ready : S with type key = int * int * int

(** Sleeper queue: [(until_ns, tid)], lexicographic. *)
module Sleep : S with type key = int * int
