(** The one table of system configurations that every CLI [--mode]
    option accepts, with the names it is spelled by. *)

val all : (string * Sg_components.Sysbuild.mode) list
(** In documentation order: base, c3, superglue, superglue-eager,
    superglue-gen. *)

val names : string
(** The names of {!all}, comma-separated, for doc strings. *)

val of_name : string -> (Sg_components.Sysbuild.mode, [ `Msg of string ]) result
(** The error message lists the accepted names. *)
