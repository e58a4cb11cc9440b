(* superglue-webbench — web-server benchmark CLI.

   Two harnesses over the same componentized server:
   - [fig7] (also the default command): the closed-loop throughput
     comparison of paper §V-E, Fig 7;
   - [open-loop]: the open-loop load generator with recovery-under-load
     tail-latency attribution ([sg-webbench] JSON schema, version 1). *)

open Cmdliner
module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Server = Sg_web.Server
module Abench = Sg_web.Abench
module Loadgen = Sg_web.Loadgen
module Reqjoin = Sg_obs.Reqjoin

module Modes = Sg_harness.Modes

let mode_conv =
  Arg.conv (Modes.of_name, fun ppf _ -> Format.fprintf ppf "<mode>")

(* ---------- fig7 (closed-loop, the original harness) ---------- *)

let mode_arg =
  Arg.(
    value
    & opt (some mode_conv) None
    & info [ "mode" ] ~docv:"MODE"
        ~doc:("Run one configuration (" ^ Modes.names
              ^ "); default: the full Fig 7 comparison."))

let requests_arg =
  Arg.(value & opt int 50_000 & info [ "requests" ] ~docv:"N" ~doc:"HTTP requests.")

let timeline_arg =
  Arg.(
    value & flag
    & info [ "timeline" ]
        ~doc:"Print the per-10ms throughput timeline with crash markers \
              (the content of the paper's Fig 7 plot).")

let faults_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fault-period-ms" ] ~docv:"MS"
        ~doc:"Crash one system service every MS virtual milliseconds.")

let run_fig7 mode requests fault_ms timeline =
  let fault_period_ns = Option.map (fun ms -> ms * 1_000_000) fault_ms in
  match mode with
  | None -> Sg_harness.Fig7.print ~requests ()
  | Some mode ->
      let sys = Sysbuild.build mode in
      let server = Server.install sys in
      let r = Abench.run ?fault_period_ns ~requests sys server in
      Printf.printf
        "%s: %.0f req/s over %.3f virtual s (errors=%d, crashes=%d, reboots=%d)\n"
        sys.Sysbuild.sys_mode r.Abench.ab_rps
        (Sg_kernel.Clock.s_of_ns r.Abench.ab_sim_ns)
        r.Abench.ab_errors r.Abench.ab_faults
        (Sim.reboots sys.Sysbuild.sys_sim);
      if timeline then begin
        print_string (Abench.render_timeline (Abench.timeline sys server));
        if Sys.getenv_opt "SG_DEBUG_TRACE" <> None then
          List.iter
            (fun e -> Format.printf "%a@." Sim.pp_trace_event e)
            (Sim.trace sys.Sysbuild.sys_sim)
      end

let fig7_term =
  Term.(const run_fig7 $ mode_arg $ requests_arg $ faults_arg $ timeline_arg)

let fig7_cmd =
  Cmd.v
    (Cmd.info "fig7" ~doc:"Closed-loop throughput comparison (paper Fig 7).")
    fig7_term

(* ---------- open-loop ---------- *)

let ol_mode_arg =
  Arg.(
    value & opt string "superglue"
    & info [ "mode" ] ~docv:"MODE"
        ~doc:("System configuration: " ^ Modes.names ^ "."))

let arrival_arg =
  Arg.(
    value
    & opt (enum [ ("poisson", `Poisson); ("bursty", `Bursty) ]) `Poisson
    & info [ "arrival" ] ~docv:"PROCESS"
        ~doc:"Arrival process: poisson or bursty (two-state MMPP).")

let rate_arg =
  Arg.(
    value & opt float 12_000.0
    & info [ "rate" ] ~docv:"RPS" ~doc:"Offered rate (base rate when bursty).")

let burst_rate_arg =
  Arg.(
    value & opt float 48_000.0
    & info [ "burst-rate" ] ~docv:"RPS" ~doc:"Burst-state rate (bursty only).")

let quiet_ms_arg =
  Arg.(
    value & opt float 20.0
    & info [ "quiet-ms" ] ~docv:"MS"
        ~doc:"Mean dwell in the base state (bursty only).")

let burst_ms_arg =
  Arg.(
    value & opt float 5.0
    & info [ "burst-ms" ] ~docv:"MS"
        ~doc:"Mean dwell in the burst state (bursty only).")

let ol_requests_arg =
  Arg.(
    value & opt int 20_000
    & info [ "requests" ] ~docv:"N" ~doc:"Arrivals to schedule.")

let clients_arg =
  Arg.(
    value & opt int 1_000_000
    & info [ "clients" ] ~docv:"N"
        ~doc:"Client-id space; each arrival draws one (connection churn).")

let workers_arg =
  Arg.(
    value & opt int 10
    & info [ "workers" ] ~docv:"N" ~doc:"Concurrent in-flight request limit.")

let queue_cap_arg =
  Arg.(
    value & opt int 200
    & info [ "queue-cap" ] ~docv:"N"
        ~doc:"Accept-queue bound; arrivals beyond it are 503 drops.")

let keepalive_arg =
  Arg.(
    value & opt float 0.9
    & info [ "keepalive" ] ~docv:"P"
        ~doc:"Probability a request reuses its connection.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Master seed.")

let periods_arg =
  Arg.(
    value
    & opt (list int) [ 0; 3 ]
    & info [ "fault-period-ms" ] ~docv:"MS,..."
        ~doc:"Comma-separated fault periods in virtual ms; 0 = fault-free. \
              One run per period.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:"Worker domains for the fault-period sweep; the report is \
              byte-identical at every value.")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the sg-webbench JSON report.")

let arrival_of ~arrival ~rate ~burst_rate ~quiet_ms ~burst_ms =
  match arrival with
  | `Poisson -> Loadgen.Poisson { rate_rps = rate }
  | `Bursty ->
      Loadgen.Bursty
        { base_rps = rate; burst_rps = burst_rate; quiet_ms; burst_ms }

let arrival_json =
  let open Sg_util.Json in
  function
  | Loadgen.Poisson { rate_rps } ->
      [ ("arrival", Str "poisson"); ("rate_rps", Fixed (1, rate_rps)) ]
  | Loadgen.Bursty { base_rps; burst_rps; quiet_ms; burst_ms } ->
      [
        ("arrival", Str "bursty");
        ("rate_rps", Fixed (1, base_rps));
        ("burst_rps", Fixed (1, burst_rps));
        ("quiet_ms", Fixed (1, quiet_ms));
        ("burst_ms", Fixed (1, burst_ms));
      ]

let report_json ~mode_name cfg outcomes =
  let open Sg_util.Json in
  let run (o : Loadgen.outcome) =
    Obj
      [
        ( "fault_period_ms",
          Int
            (match o.oc_fault_period_ns with
            | None -> 0
            | Some ns -> ns / 1_000_000) );
        ("faults", Int o.oc_result.Loadgen.lr_faults);
        ("reboots", Int o.oc_reboots);
        ("join", Reqjoin.json o.oc_join);
      ]
  in
  to_string
    (Obj
       ([ ("schema", Str "sg-webbench"); ("version", Int 1); ("mode", Str mode_name) ]
       @ arrival_json cfg.Loadgen.lg_arrival
       @ [
           ("requests", Int cfg.Loadgen.lg_requests);
           ("clients", Int cfg.Loadgen.lg_clients);
           ("workers", Int cfg.Loadgen.lg_workers);
           ("queue_cap", Int cfg.Loadgen.lg_queue_cap);
           ("keepalive", Fixed (2, cfg.Loadgen.lg_keepalive));
           ("conn_setup_ns", Int cfg.Loadgen.lg_conn_setup_ns);
           ("seed", Int cfg.Loadgen.lg_seed);
           ("runs", List (List.map run outcomes));
         ]))

let print_text ~mode_name outcomes =
  List.iter
    (fun (o : Loadgen.outcome) ->
      (match o.Loadgen.oc_fault_period_ns with
      | None ->
          Printf.printf "== %s, fault-free (reboots=%d)\n" mode_name o.oc_reboots
      | Some ns ->
          Printf.printf "== %s, faults every %dms (crashes=%d, reboots=%d)\n"
            mode_name (ns / 1_000_000) o.oc_result.Loadgen.lr_faults o.oc_reboots);
      Format.printf "%a@?" Reqjoin.pp o.oc_join)
    outcomes

let run_open_loop mode_name arrival rate burst_rate quiet_ms burst_ms requests
    clients workers queue_cap keepalive seed periods jobs json =
  match Modes.of_name mode_name with
  | Error (`Msg m) ->
      prerr_endline ("webbench: " ^ m);
      exit 2
  | Ok mode ->
      let cfg =
        {
          Loadgen.default with
          Loadgen.lg_arrival =
            arrival_of ~arrival ~rate ~burst_rate ~quiet_ms ~burst_ms;
          lg_requests = requests;
          lg_clients = clients;
          lg_workers = workers;
          lg_queue_cap = queue_cap;
          lg_keepalive = keepalive;
          lg_seed = seed;
        }
      in
      let periods =
        List.map (fun ms -> if ms <= 0 then None else Some (ms * 1_000_000)) periods
      in
      let outcomes = Loadgen.sweep ~jobs ~mode ~periods cfg in
      if json then print_string (report_json ~mode_name cfg outcomes)
      else print_text ~mode_name outcomes

let open_loop_cmd =
  Cmd.v
    (Cmd.info "open-loop"
       ~doc:
         "Open-loop load with recovery-under-load tail-latency attribution \
          (sg-webbench schema, version 1).")
    Term.(
      const run_open_loop $ ol_mode_arg $ arrival_arg $ rate_arg
      $ burst_rate_arg $ quiet_ms_arg $ burst_ms_arg $ ol_requests_arg
      $ clients_arg $ workers_arg $ queue_cap_arg $ keepalive_arg $ seed_arg
      $ periods_arg $ jobs_arg $ json_arg)

let () =
  let info =
    Cmd.info "superglue-webbench"
      ~doc:"Componentized web-server benchmarks (closed- and open-loop)"
  in
  exit (Cmd.eval (Cmd.group ~default:fig7_term info [ fig7_cmd; open_loop_cmd ]))
