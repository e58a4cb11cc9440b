(** Recovery metrics folded from the event stream.

    A {!t} is a pure consumer: attach it to a sink (or {!feed} it events
    replayed from a JSON-lines dump) and read counters and histograms.
    Counters mirror what the harnesses previously kept privately:
    invocations, crash/reboot accounting, descriptor walks (also per
    client), SWIFI outcome tallies, and latency histograms for
    invocation spans, walks, first post-reboot access and open-loop
    request sojourn. *)

type t

val create : unit -> t

val feed : t -> Event.t -> unit
(** Fold one event. Order matters for histogram pairing. *)

val attach : t -> Sink.t -> unit
(** Subscribe [feed] to a sink. *)

val invocations : t -> int
(** Invocation spans begun. *)

val reboots : t -> int
val crashes : t -> int

val walks : ?client:int -> t -> int
(** Descriptor walks, total or those performed by [client]. *)

val spans_ok : t -> int
val spans_fault : t -> int
val upcalls : t -> int
val diverts : t -> int
val storage_ops : t -> int
val injections : t -> int

val perturbs : t -> int
(** Adversary perturbations fired ({!Event.Perturb}), counted apart from
    SWIFI injections so episode attribution stays exact. *)

val perturbs_in_walk : t -> int
(** The subset of {!perturbs} that fired on a recovery-walk replay. *)

val outcome_count : t -> string -> int
val reboot_ns_total : t -> int
val http_requests : t -> int
val http_errors : t -> int

val sojourn_hist : t -> Hist.t
(** Arrival-to-finish latency of open-loop requests (queueing included). *)

val span_hist : t -> Hist.t
val walk_hist : t -> Hist.t

val first_access_hist : t -> Hist.t
(** Virtual ns from a component's micro-reboot to the first subsequent
    successful invocation of it (the paper's first-access recovery
    latency). *)

val pp_summary : Format.formatter -> t -> unit
