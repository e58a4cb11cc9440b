(* sgtrace — structured-trace tooling over the sg_obs event stream.

   sgtrace dump     run a workload (optionally under a crash storm) with
                    full event retention and write JSON-lines to stdout
                    or a file
   sgtrace check    validate a JSON-lines stream against the recovery
                    invariants; non-zero exit on any violation
   sgtrace summary  replay a JSON-lines stream through the metrics fold
                    and print the summary
   sgtrace profile  stitch the stream into recovery episodes and print
                    per-episode timelines, critical paths and the
                    per-component attribution table (or --json)
   sgtrace tail     join Http_req spans against the stream's recovery
                    episodes: clean vs fault-shadowed latency, per-episode
                    tail impact, throughput and queue depth (or --json) *)

open Cmdliner
module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads

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
    value & opt string "fs"
    & info [ "iface" ] ~docv:"IFACE"
        ~doc:"Workload interface (sched mm fs lock evt timer).")

let iters_arg =
  Arg.(
    value & opt int 30
    & info [ "iters" ] ~docv:"N" ~doc:"Workload iterations.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulator seed.")

let storm_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "storm" ] ~docv:"K"
        ~doc:
          "Crash storm: fail-stop the target service on every K-th dispatch \
           into it.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE"
        ~doc:"Write the JSON-lines stream to $(docv) instead of stdout.")

let file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"JSON-lines event stream (default: stdin).")

let check_mode_arg =
  Arg.(
    value
    & opt (some (enum [ ("ondemand", `Ondemand); ("eager", `Eager) ])) None
    & info [ "recovery-mode" ] ~docv:"MODE"
        ~doc:
          "Additionally enforce the T0/T1 walk rules for this recovery mode \
           (ondemand or eager).")

let incomplete_arg =
  Arg.(
    value & flag
    & info [ "incomplete" ]
        ~doc:
          "The stream is a prefix of a run: skip the end-of-stream \
           quiescence checks.")

(* run one workload with full retention, return the event stream *)
let collect ~mode ~iface ~iters ~seed ~storm =
  let sys = Sysbuild.build ~seed mode in
  let sim = sys.Sysbuild.sys_sim in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let check = Workloads.setup sys ~iface ~iters in
  (match storm with
  | None -> ()
  | Some k ->
      let target = Sysbuild.cid_of_iface sys iface in
      let count = ref 0 in
      Sim.set_on_dispatch sim
        (Some
           (fun sim cid _ ->
             if cid = target then begin
               incr count;
               if !count mod k = 0 then begin
                 Sim.mark_failed sim cid ~detector:"sgtrace-storm";
                 raise (Comp.Crash { cid; detector = "sgtrace-storm" })
               end
             end)));
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> failwith (Format.asprintf "sgtrace: run ended %a" Sim.pp_run_result r));
  (match check () with
  | [] -> ()
  | v ->
      failwith ("sgtrace: workload postconditions failed: " ^ String.concat "; " v));
  Sg_obs.Sink.events (Sim.obs sim)

let dump mode iface iters seed storm out =
  if (match storm with Some k -> k <= 0 | None -> false) then begin
    prerr_endline "sgtrace: --storm must be positive";
    2
  end
  else if not (List.mem iface Workloads.all_ifaces) then begin
    Printf.eprintf "sgtrace: unknown interface %s (have: %s)\n" iface
      (String.concat " " Workloads.all_ifaces);
    2
  end
  else begin
    let events = collect ~mode ~iface ~iters ~seed ~storm in
    (match out with
    | None -> Sg_obs.Jsonl.dump stdout events
    | Some path ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> Sg_obs.Jsonl.dump oc events);
        Printf.eprintf "sgtrace: wrote %d events to %s\n" (List.length events)
          path);
    0
  end

(* Load the stream at [file] (stdin if [None]) and pass it to [f]; a
   parse or I/O error is reported and exits 2. *)
let with_events file f =
  match
    match file with
    | None -> Sg_obs.Jsonl.load stdin
    | Some path -> In_channel.with_open_text path Sg_obs.Jsonl.load
  with
  | events -> f events
  | exception Sg_util.Json.Parse_error msg ->
      Printf.eprintf "sgtrace: parse error: %s\n" msg;
      2
  | exception Sys_error msg ->
      Printf.eprintf "sgtrace: %s\n" msg;
      2

let check file recovery_mode incomplete =
  with_events file @@ fun events ->
  match Sg_obs.Check.run ?mode:recovery_mode ~completed:(not incomplete) events with
  | [] ->
      Printf.printf "ok: %d events, all invariants hold\n" (List.length events);
      0
  | vs ->
      List.iter
        (fun v -> Format.printf "violation: %a@." Sg_obs.Check.pp_violation v)
        vs;
      Printf.printf "%d violation(s) in %d events\n" (List.length vs)
        (List.length events);
      1

let summary file =
  with_events file @@ fun events ->
  let m = Sg_obs.Metrics.create () in
  List.iter (Sg_obs.Metrics.feed m) events;
  Printf.printf "%d events\n" (List.length events);
  Format.printf "%a@?" Sg_obs.Metrics.pp_summary m;
  0

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:"Emit a versioned machine-readable profile instead of text.")

let profile file json =
  with_events file @@ fun events ->
  let eps = Sg_obs.Episode.of_events events in
  if json then
    let source = match file with Some p -> p | None -> "<stdin>" in
    print_endline (Sg_obs.Profile.to_json ~source eps)
  else Format.printf "%a@?" Sg_obs.Profile.pp eps;
  0

let tail file json =
  with_events file @@ fun events ->
  let t = Sg_obs.Reqjoin.of_events events in
  if json then
    print_endline
      Sg_util.Json.(
        to_string
          (Obj
             [
               ("schema", Str "sg-reqjoin");
               ("version", Int Sg_obs.Reqjoin.json_version);
               ("join", Sg_obs.Reqjoin.json t);
             ]))
  else Format.printf "%a@?" Sg_obs.Reqjoin.pp t;
  0

let dump_cmd =
  let term =
    Term.(
      const dump $ mode_arg $ iface_arg $ iters_arg $ seed_arg $ storm_arg
      $ out_arg)
  in
  Cmd.v
    (Cmd.info "dump"
       ~doc:"Run a workload with full event retention and export JSON-lines.")
    term

let check_cmd =
  let term = Term.(const check $ file_arg $ check_mode_arg $ incomplete_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Validate an event stream against the recovery-ordering invariants; \
          exits 1 on violations, 2 on parse errors.")
    term

let summary_cmd =
  let term = Term.(const summary $ file_arg) in
  Cmd.v
    (Cmd.info "summary"
       ~doc:"Fold an event stream through the metrics and print the totals.")
    term

let profile_cmd =
  let term = Term.(const profile $ file_arg $ json_arg) in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Stitch an event stream into recovery episodes; print per-episode \
          phase breakdowns, ASCII timelines, critical paths and the \
          per-component time attribution (or a versioned JSON profile with \
          $(b,--json)).")
    term

let tail_cmd =
  let term = Term.(const tail $ file_arg $ json_arg) in
  Cmd.v
    (Cmd.info "tail"
       ~doc:
         "Join the stream's Http_req spans against its recovery episodes: \
          clean vs fault-shadowed latency populations, per-episode tail \
          impact, offered-vs-served throughput and queue-depth profile (or \
          a versioned JSON report with $(b,--json)).")
    term

let () =
  let info =
    Cmd.info "sgtrace"
      ~doc:
        "Structured recovery-trace tooling (dump, check, summary, profile, \
         tail)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ dump_cmd; check_cmd; summary_cmd; profile_cmd; tail_cmd ]))
