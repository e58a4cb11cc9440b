(** Replay artifacts: a failing scenario as one canonical JSON object
    (DESIGN.md §3.9).

    {v
    {"schema":"superglue-dst","version":1,
     "sut":"superglue" | "mutant:<id>",
     "seed":<int>,"verdict":"postcond"|"check"|"over-bound"|"fatal",
     "workload":{"kind":"ops","ops":[...]}
               |{"kind":"classic","iface":...,"iters":N,"knob":N},
     "plan":[{"fault":...},...]}
    v}

    Field order is fixed and rendering is compact, so two equal
    scenarios always serialize byte-identically — the property the CI
    gate checks across shrink parallelism levels. All values are
    integers or strings ({!Sg_util.Json} parses no floats). *)

type t = {
  af_sut : string;  (** {!Exec.sut_label} of the system under test *)
  af_verdict : string;  (** {!Exec.verdict_class} the scenario produced *)
  af_scenario : Exec.scenario;
}

val to_json : t -> Sg_util.Json.t
val to_string : t -> string

val of_json : Sg_util.Json.t -> t
val of_string : string -> t
(** @raise Sg_util.Json.Parse_error on malformed or wrong-schema
    input. *)

val save : string -> t -> unit
(** Write the artifact to a file (compact JSON plus one newline). *)

val load : string -> t
(** @raise Sg_util.Json.Parse_error as {!of_string};
    @raise Sys_error on unreadable files. *)
