(** JSON-lines codec for event streams.

    One flat JSON object per line, with only string/int/bool fields, so
    the format stays greppable. The value mapping lives here; escaping,
    printing and parsing are {!Sg_util.Json}'s.
    [of_string (to_string e) = e] for every event. *)

val to_string : Event.t -> string
(** One line, no trailing newline. *)

val of_string : string -> Event.t
(** @raise Sg_util.Json.Parse_error on malformed input. *)

val dump : out_channel -> Event.t list -> unit
val load : in_channel -> Event.t list
(** Reads to EOF, skipping blank lines.
    @raise Sg_util.Json.Parse_error with the 1-based line number
    prefixed to the message. *)
