(** Request/episode join: tail-latency attribution under recovery.

    Consumes the {!Event.Http_req} spans of an open-loop run (live, or
    replayed from JSON-lines) plus the stitched {!Episode} list, and
    splits the request population in two: requests whose
    [arrival, finish] window overlapped a recovery episode's
    [detect, end] window (*fault-shadowed*) and the rest (*clean*).
    Each population gets a log-linear latency histogram, every episode
    gets the latency profile of the requests it shadowed, and the
    timestamps alone yield offered-vs-served throughput and a
    queue-depth (arrived but not yet started) overload profile.

    The join is a pure function of the request records and episodes:
    replaying a dumped stream reproduces the report bit-for-bit. *)

type req = {
  rq_client : int;
  rq_arrival_ns : int;
  rq_start_ns : int;
  rq_finish_ns : int;
  rq_status : int;
  rq_outcome : string;  (** "ok", "error", "dropped" or "failed" *)
}

val req_of_kind : Event.kind -> req option
(** [Some] for {!Event.Http_req}, [None] otherwise. *)

val latency_ns : req -> int
(** Sojourn: [finish - arrival], queueing included. *)

type episode_impact = {
  ei_cid : int;  (** the crashed component *)
  ei_detect_ns : int;
  ei_end_ns : int;
  ei_complete : bool;
  ei_requests : int;  (** requests whose window overlapped the episode *)
  ei_p99_ns : int;  (** p99 latency of those requests *)
  ei_max_ns : int;
  ei_mean_ns : float;
}

type t = {
  tj_offered : int;  (** all arrivals, including drops *)
  tj_served : int;  (** outcome "ok" *)
  tj_errors : int;  (** outcome "error" (non-200 response) *)
  tj_dropped : int;  (** rejected at the accept queue *)
  tj_failed : int;  (** no response (crash propagated to the client) *)
  tj_first_arrival_ns : int;
  tj_window_ns : int;  (** first arrival to last finish *)
  tj_all : Hist.t;
  tj_clean : Hist.t;
  tj_shadowed : Hist.t;
  tj_queue_depth : Hist.t;  (** sampled at every arrival, including self *)
  tj_queue_max : int;
  tj_episodes : episode_impact list;  (** in detection order *)
}

val join : ?episodes:Episode.t list -> req list -> t

val of_events : Event.t list -> t
(** Extract the request spans and stitch the episodes from one event
    stream, then {!join} — the [sgtrace tail] entry point. *)

val offered_rps : t -> float
val served_rps : t -> float

val json_version : int

val json : t -> Sg_util.Json.t
(** One JSON object: counts, throughput, queue profile, per-population
    latency summaries (p50/p90/p99/p999, mean/stddev) and the
    per-episode impact rows. Embedded as the ["join"] member of the
    [sg-reqjoin] and [sg-webbench] reports. *)

val to_json : t -> string
(** [json] rendered compactly (no trailing newline). *)

val pp : Format.formatter -> t -> unit
