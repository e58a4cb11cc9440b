(** Interface-value fault-propagation taint analysis (DESIGN.md §3.11).

    SuperGlue's premise is that faults escape a component only through
    interface values, so recovery soundness reduces to what crosses
    each IDL edge. This pass seeds corruption at every fault source —
    register state feeding an argument, storage reads behind
    [G_dr]/[D_r] interfaces, inbound parameters — and propagates it
    through the compiled state machine, the captured replay metadata
    (the same capture/replay dataflow SG007 checks), descriptor walks
    and the cross-component wakeup digraph. Every (edge, field) pair
    gets a verdict:

    - {b masked}: recovery replay or server-side validation regenerates
      or clamps the value; corruption cannot change observable state.
    - {b detected}: a checker flags it — the displaced value misses the
      descriptor table ([EINVAL]) or trips a guarded path.
    - {b silent}: corruption can reach another component's state
      unobserved — only an end-to-end oracle can see it.

    Fields are the function's parameters, its return value ([ret]) and
    three delivery pseudo-fields for whole-invocation faults: [@drop]
    (the call never reaches the server but the client sees a default
    reply), [@dup] (delivered twice) and [@reorder] (the previous
    invocation of the same function is ghost-replayed first). [@dup]
    and [@reorder] are not emitted for blocking functions: re-blocking
    wedges the caller by construction, which the DST adversary cannot
    distinguish from a hang.

    The verdict table is validated dynamically: the DST adversary
    ({!Sg_dst.Plan.Perturb}, [superglue-dst adversary]) perturbs each
    edge in a live system and checks the observed outcome class against
    the static verdict. *)

module Diag = Superglue.Diag
module Ir = Superglue.Ir

type verdict = Masked | Detected | Silent

val verdict_to_string : verdict -> string
val verdict_of_string : string -> verdict option

type entry = {
  e_iface : string;
  e_fn : string;
  e_field : string;
      (** a parameter name, ["ret"], or one of ["@drop"], ["@dup"],
          ["@reorder"] *)
  e_kind : string;
      (** field class: the parameter attribute (["plain"], ["desc"],
          ["desc_data"], ...), ["ret"] or ["delivery"] *)
  e_verdict : verdict;
  e_reason : string;  (** one-line dataflow justification *)
}

type report = {
  t_entries : entry list;
      (** every (interface fn, field) edge of the analyzed artifacts,
          in artifact, declaration, field order *)
  t_diags : Diag.t list;  (** SG016–SG019 findings *)
}

val read_shaped : Ir.t -> Ir.func -> bool
(** A function whose return value carries a data payload out of the
    server: it has a retval annotation, a plain non-string operand
    (e.g. a length) and no plain string payload going in. [tread] is
    read-shaped; [twrite] (plain [char *data] inbound) and [tlseek]
    (no plain operand) are not. The DST adversary uses this to pick a
    type-correct default reply for dropped invocations. *)

val analyze :
  ?wakeup_deps:(string * string * string) list ->
  ?boot_order:string list ->
  Superglue.Compiler.artifact list ->
  report
(** Total and deterministic: never raises for artifacts the compiler
    accepts, and depends only on the artifact list and wiring (defaults
    from {!Sg_components.Sysbuild}). *)

val render : report -> string
(** Human-readable verdict table plus findings. *)

val report_to_json : report -> Sg_util.Json.t
(** Schema "sgc-taint" v1:
    [{"version":1,"schema":"sgc-taint","entries":[{"iface","fn",
    "field","kind","verdict","reason"}...],"edges":N,"fields":N,
    "masked":N,"detected":N,"silent":N,"diagnostics":[...],
    "errors":N}]. *)
