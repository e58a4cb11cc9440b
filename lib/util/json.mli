(** The repository's one JSON codec: a generic value, a compact printer
    and a parser. Every JSON document the libraries and CLIs write or
    read goes through this module. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with [d] decimal places, byte for
          byte as [Printf.sprintf "%.*f" d x]. Output only: {!parse}
          reads integers alone, since no reader consumes a float field. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val to_string : t -> string
(** Compact rendering (no insignificant whitespace). *)

val parse : string -> t
(** @raise Parse_error on malformed input, including a number that is
    not an OCaml [int] (a bare [-], a fraction or an out-of-range
    literal). [\u] escapes above ASCII decode to [?]. *)

val fail : ('a, unit, string, 'b) format4 -> 'a
(** [fail fmt ...] raises {!Parse_error} with the formatted message —
    for readers that reject a well-formed value of the wrong shape. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] otherwise. *)

val int_member : string -> t -> int
val str_member : string -> t -> string
val bool_member : string -> t -> bool
(** Typed field lookup on an [Obj].
    @raise Parse_error if the field is absent or of another type. *)

val versioned_report : schema:string -> version:int -> (string * t) list -> t
(** The canonical envelope shared by every [sgc] report schema
    ("sgc-lint", "sgc-bound", "sgc-taint", "sgc-race"): a top-level
    object whose first two fields are always [version] then [schema],
    followed by the schema-specific fields in the given order. *)
