(* superglue-campaign — the SWIFI fault-injection campaign CLI
   (paper §V-D, Table II). *)

open Cmdliner
module Campaign = Sg_swifi.Campaign

let mode_arg =
  let mode_conv =
    Arg.conv (Sg_harness.Modes.of_name, fun ppf _ -> Format.fprintf ppf "<mode>")
  in
  Arg.(
    value
    & opt mode_conv Superglue.Stubset.mode
    & info [ "mode" ] ~docv:"MODE"
        ~doc:("System configuration: " ^ Sg_harness.Modes.names ^ "."))

let iface_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "iface" ] ~docv:"IFACE"
        ~doc:"Target one service (sched mm fs lock evt timer); default: all six.")

let injections_arg =
  Arg.(
    value & opt int 500
    & info [ "n"; "injections" ] ~docv:"N" ~doc:"Faults to inject per service.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Campaign seed.")

let cmon_arg =
  Arg.(
    value & flag
    & info [ "cmon" ]
        ~doc:
          "Arm the C'MON latent-fault monitor: loop-bound hangs are \
           detected within an execution-budget overrun and recovered \
           instead of hanging the system.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Fan campaign chunks across $(docv) domains. Results are \
           deterministic: totals are identical for every $(docv), and \
           $(docv)=1 output is byte-identical to the sequential driver.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write the campaign's full structured event stream (all chunks, \
           re-stamped into one monotone JSON-lines stream with a \
           sys-reboot note at each chunk boundary) to $(docv). Requires \
           --iface.")

(* Concatenate per-chunk event streams into one checkable stream: one
   global sequence numbering, virtual timestamps offset to stay monotone
   across chunk boundaries, and a "sys-reboot" note separating chunks
   (Sg_obs.Check resets its run-scoped state there). *)
let make_trace_writer path =
  let buf = ref [] in
  let seq = ref 0 in
  let last_at = ref 0 in
  let first = ref true in
  let push ~at_ns ~tid kind =
    buf := { Sg_obs.Event.seq = !seq; at_ns; tid; kind } :: !buf;
    incr seq;
    last_at := max !last_at at_ns
  in
  let on_chunk ~seed:_ events =
    if not !first then
      push ~at_ns:!last_at ~tid:(-1)
        (Sg_obs.Event.Note
           { name = "sys-reboot"; data = "campaign chunk boundary" });
    first := false;
    let base = !last_at in
    List.iter
      (fun (e : Sg_obs.Event.t) ->
        push
          ~at_ns:(base + e.Sg_obs.Event.at_ns)
          ~tid:e.Sg_obs.Event.tid e.Sg_obs.Event.kind)
      events
  in
  let finish () =
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () -> Sg_obs.Jsonl.dump oc (List.rev !buf));
    Printf.eprintf "superglue-campaign: wrote %d events to %s\n" !seq path
  in
  (on_chunk, finish)

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Stitch each chunk's event stream into recovery episodes and \
           print the episode profile (phase breakdown, critical paths, \
           per-component time attribution) after the campaign row. \
           Deterministic across -j. Requires --iface.")

let verify_bounds_arg =
  Arg.(
    value & flag
    & info [ "verify-bounds" ]
        ~doc:
          "Check every stitched recovery episode against the static \
           worst-case recovery-latency bound of the targeted service \
           (sgc bound; Sg_analysis.Wcr) and exit 1 on any violation. \
           Requires --iface.")

(* The static bound for a crash of [iface] observed at its own
   interface — the pair the campaign's episodes realize. *)
let static_bound iface =
  let artifacts =
    List.map Superglue.Compiler.builtin Superglue.Compiler.builtin_names
  in
  let report = Sg_analysis.Wcr.analyze artifacts in
  Sg_analysis.Wcr.bound_for report ~crashed:iface ~client:iface

(* Streaming bound check: fold each chunk's stitched episodes as they
   merge (Pardriver [on_episodes], seed order) instead of retaining a
   campaign-long episode list — a million-injection campaign
   bound-checks in constant memory. Only the violations themselves are
   kept, for the report. *)
type bound_acc = {
  mutable ba_total : int;
  mutable ba_complete : int;
  mutable ba_max_span : int;
  mutable ba_violations : Sg_obs.Episode.t list;  (* reversed *)
}

let feed_bounds ~bound_ns acc eps =
  List.iter
    (fun e ->
      acc.ba_total <- acc.ba_total + 1;
      if e.Sg_obs.Episode.ep_complete then begin
        acc.ba_complete <- acc.ba_complete + 1;
        let s = Sg_obs.Episode.span_ns e in
        if s > acc.ba_max_span then acc.ba_max_span <- s;
        if s > bound_ns then acc.ba_violations <- e :: acc.ba_violations
      end)
    eps

let report_bounds ~iface ~bound_ns acc =
  let violations = List.rev acc.ba_violations in
  if acc.ba_complete = 0 then
    Printf.printf
      "bound-check %s: episodes=%d complete=0 bound=%dns (no complete \
       episode to check)\n"
      iface acc.ba_total bound_ns
  else
    Printf.printf
      "bound-check %s: episodes=%d complete=%d max_span=%dns bound=%dns \
       tightness=%.2fx violations=%d\n"
      iface acc.ba_total acc.ba_complete acc.ba_max_span bound_ns
      (float_of_int bound_ns /. float_of_int acc.ba_max_span)
      (List.length violations);
  List.iter
    (fun e ->
      Printf.printf
        "bound-check %s: VIOLATION episode at %dns: span=%dns > bound=%dns\n"
        iface e.Sg_obs.Episode.ep_detect_ns
        (Sg_obs.Episode.span_ns e)
        bound_ns)
    violations;
  violations <> []

let run mode iface injections seed cmon jobs trace profile verify_bounds =
  let cmon_period_ns = if cmon then Some 5_000 else None in
  match (trace, profile, verify_bounds, iface) with
  | Some _, _, _, None ->
      prerr_endline "superglue-campaign: --trace requires --iface";
      exit 2
  | _, true, _, None ->
      prerr_endline "superglue-campaign: --profile requires --iface";
      exit 2
  | _, _, true, None ->
      prerr_endline "superglue-campaign: --verify-bounds requires --iface";
      exit 2
  | _ -> (
      let writer = Option.map make_trace_writer trace in
      let on_chunk = Option.map fst writer in
      match iface with
      | Some iface ->
          let bound =
            if verify_bounds then Some (static_bound iface) else None
          in
          let bacc =
            { ba_total = 0; ba_complete = 0; ba_max_span = 0;
              ba_violations = [] }
          in
          let on_episodes =
            match bound with
            | Some (Some bound_ns) ->
                Some (fun ~seed:_ eps -> feed_bounds ~bound_ns bacc eps)
            | _ -> None
          in
          let row =
            Sg_swifi.Pardriver.run ~seed ?cmon_period_ns ?on_chunk ?on_episodes
              ~jobs ~mode ~iface ~injections ~episodes:profile ()
          in
          Format.printf "%a@." Campaign.pp_row row;
          if profile then
            Format.printf "%a@?" Sg_obs.Profile.pp row.Campaign.r_episodes;
          let violated =
            match bound with
            | None -> false
            | Some None ->
                Printf.printf
                  "bound-check %s: no static bound (interface unbounded or \
                   unknown)\n"
                  iface;
                false
            | Some (Some bound_ns) -> report_bounds ~iface ~bound_ns bacc
          in
          Option.iter (fun (_, finish) -> finish ()) writer;
          if violated then exit 1
      | None ->
          if cmon then
            List.iter
              (fun iface ->
                let row =
                  Sg_swifi.Pardriver.run ~seed ?cmon_period_ns ~jobs ~mode
                    ~iface ~injections ()
                in
                Format.printf "%a@." Campaign.pp_row row)
              Sg_components.Workloads.all_ifaces
          else Sg_harness.Table2.print ~mode ~injections ~jobs ())

let () =
  Sg_util.Pool.tune_gc ();
  let term =
    Term.(
      const run $ mode_arg $ iface_arg $ injections_arg $ seed_arg $ cmon_arg
      $ jobs_arg $ trace_arg $ profile_arg $ verify_bounds_arg)
  in
  let info =
    Cmd.info "superglue-campaign"
      ~doc:"SWIFI register bit-flip fault-injection campaign (Table II)"
  in
  exit (Cmd.eval (Cmd.v info term))
