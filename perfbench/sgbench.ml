(* The repository benchmark: two workloads against the shipped
   [superglue] system (interpreted stubs, [Superglue.Stubset.mode]).

     sgbench.exe --workload campaign|web --seed N --seconds S
                 --trace 0|1 [--pins FILE]

   [--trace 0] measures the end-to-end metrics: peak memory after a
   fixed amount of untimed work, then host time of the shipped entry
   points (Pardriver.run, Loadgen.sweep), each round set against the
   frozen host probe ([Probe]) run around it, plus the
   virtual-time outcomes of the outcome set, which every run recomputes
   after the timed window: fixed-size units from the seed (a campaign
   round, a DST unit and a web sweep) and the canonical Table II
   campaign, with pinned digests. [--trace 1] measures the per-layer
   metrics: untraced rounds alternate with rounds that compose the same
   work from the layers' public functions, with a span around each
   call; then one traced unit of the other workload and one of DST
   runs, so that every layer has samples in every run.
   Both modes check their outputs; the last line of standard output
   is one JSON object with [correct], [attempted], [failed] and
   [metrics]. README.md records why each workload was chosen and
   which end-to-end metric each layer metric should move. *)

module Sim = Sg_os.Sim
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Compiler = Superglue.Compiler
module Wcr = Sg_analysis.Wcr
module Campaign = Sg_swifi.Campaign
module Pardriver = Sg_swifi.Pardriver
module Injector = Sg_swifi.Injector
module Dst = Sg_dst.Dst
module Exec = Sg_dst.Exec
module Loadgen = Sg_web.Loadgen
module Server = Sg_web.Server
module Metrics = Sg_obs.Metrics
module Hist = Sg_obs.Hist
module Episode = Sg_obs.Episode
module Reqjoin = Sg_obs.Reqjoin
module Rng = Sg_util.Rng

let mode = Superglue.Stubset.mode

(* ---------- statistics ---------- *)

let fsum xs = List.fold_left ( +. ) 0.0 xs
let isum xs = List.fold_left ( + ) 0 xs
let fdiv a b = if b = 0.0 then 0.0 else a /. b
let idiv a b = fdiv (float_of_int a) (float_of_int b)

(* nearest-rank percentile, [p] in [0;1]; 0 for no samples *)
let pct p xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = pct 0.5 xs
let ipct p xs = pct p (List.map float_of_int xs)
let mean xs = fdiv (fsum xs) (float_of_int (List.length xs))

(* ---------- checks ---------- *)

let correct = ref true

let check cond msg =
  if not cond then begin
    correct := false;
    Printf.printf "CHECK FAILED: %s\n%!" msg
  end

(* ---------- inputs, all derived from the seed ---------- *)

(* a campaign round is small, so a run takes many rate samples *)
let round_injections = 2_000
let campaign_seed seed = 1 + (seed * 1_000_000)

(* Table II itself is one canonical campaign, the same in every run: the
   reproduction sits within sampling error of the paper, so a seeded
   table2_err_pp would be mostly binomial noise *)
let table2_seed = 1
let table2_injections = 20_000

(* a DST unit is [dst_unit_seeds] consecutive seeds from a seed-derived
   start in the window whose pristine failures are known (the ledger
   below), cycling at its end *)
let dst_window = 40_000
let dst_start seed = 1 + (seed * 7_919 mod dst_window)
let dst_unit_seeds = 2_000
let dst_jobs = 2

let dst_ledger =
  [
    (5692, "evt spin guard");
    (35574, "evt spin guard");
    (38598, "evt spin guard");
    (14837, "lock spin guard");
    (6121, "deadlock");
    (24761, "deadlock");
    (30300, "mman_alias_page walk EINVAL");
    (31430, "mman_alias_page walk EINVAL");
  ]

let web_cfg seed = { Loadgen.default with Loadgen.lg_seed = seed }
let web_periods = [ None; Some 1_000_000 ]

(* Pardriver's defaults, which the traced composition must repeat *)
let chunk_iters = 400
let period_ns = 20_000

(* ---------- host metadata ---------- *)

let calibration_ns () =
  let t0 = Span.now_ns () in
  let x = ref 1 in
  for _ = 1 to 20_000_000 do
    x := ((!x * 1_103_515_245) + 12_345) land 0x3fff_ffff
  done;
  ignore (Sys.opaque_identity !x);
  Span.now_ns () - t0

let peak_rss_mib () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.0
        | l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                  float_of_int kb /. 1024.0)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ---------- shared counters ---------- *)

(* counts read from [Sg_obs.Metrics] at the layer boundaries *)
type counts = {
  mutable ops : int;
  mutable inv : int;
  mutable walks : int;
  mutable reboots : int;
  mutable upcalls : int;
  mutable storage : int;
  mutable events : int;
  mutable builds : int;
}

let counts () =
  {
    ops = 0;
    inv = 0;
    walks = 0;
    reboots = 0;
    upcalls = 0;
    storage = 0;
    events = 0;
    builds = 0;
  }

let add_metrics c m =
  c.inv <- c.inv + Metrics.invocations m;
  c.walks <- c.walks + Metrics.walks m;
  c.reboots <- c.reboots + Metrics.reboots m;
  c.upcalls <- c.upcalls + Metrics.upcalls m;
  c.storage <- c.storage + Metrics.storage_ops m

(* one pass of a workload: operations, failures, the host time of each
   round (one rate sample per round), and the peak resident memory once
   [rss_ops] operations are done. Memory is read after a fixed amount of
   work, not at the deadline, because resident memory grows with every
   simulator a process runs, and a faster host would otherwise report
   more of it. With [probe], each rate sample is followed by runs of the
   host probe for a fifth of the sample's time. The mean of the probe
   runs just before and just after a round stands for the host's speed
   during it, and the pair gives the operations done in the host time
   of one probe run. *)
type pass = {
  mutable p_attempted : int;
  mutable p_failed : int;
  mutable p_ops : int;
  mutable p_rates : float list;
  p_probe : bool;
  mutable p_last_probe_ns : float;
  mutable p_probe_ns : float list;
  mutable p_per_probe : float list;
  p_rss_ops : int;
  mutable p_rss : float option;
}

let pass ?(probe = false) ?(rss_ops = max_int) () =
  {
    p_attempted = 0;
    p_failed = 0;
    p_ops = 0;
    p_rates = [];
    p_probe = probe;
    p_last_probe_ns = (if probe then Probe.run_ns ~min_ns:0 else 0.0);
    p_probe_ns = [];
    p_per_probe = [];
    p_rss_ops = rss_ops;
    p_rss = None;
  }

let sample p ~ops ~ns =
  p.p_ops <- p.p_ops + ops;
  if p.p_rss = None && p.p_ops >= p.p_rss_ops then p.p_rss <- Some (peak_rss_mib ());
  if ns > 0 then begin
    let rate = float_of_int ops *. 1e9 /. float_of_int ns in
    p.p_rates <- rate :: p.p_rates;
    if p.p_probe then begin
      let after = Probe.run_ns ~min_ns:(ns / 5) in
      let probe_ns = (p.p_last_probe_ns +. after) /. 2.0 in
      p.p_last_probe_ns <- after;
      p.p_probe_ns <- after :: p.p_probe_ns;
      p.p_per_probe <- (rate *. probe_ns /. 1e9) :: p.p_per_probe
    end
  end

(* run [round] until [stop ()], at least once, with [between] run
   untimed between two rounds *)
let rounds ?(between = ignore) ~stop round =
  let rec go () =
    round ();
    if not (stop ()) then begin
      between ();
      go ()
    end
  in
  go ()

let past deadline () = Span.now_ns () >= deadline
let once () = true

(* ---------- campaign ---------- *)

let hist_text h =
  Printf.sprintf "n=%d sum=%d min=%d max=%d [%s]" (Hist.n h) (Hist.sum h)
    (Hist.min_value h) (Hist.max_value h)
    (String.concat ","
       (List.map (fun (i, c) -> Printf.sprintf "%d:%d" i c) (Hist.buckets_list h)))

let row_text r =
  Format.asprintf "%a reboots=%d first_access=%s" Campaign.pp_row r
    r.Campaign.r_reboots (hist_text r.Campaign.r_first_access)

let rows_text rows = String.concat "\n" (List.map row_text rows)

(* Table II over the six services through the shipped driver; a service
   whose driver call raised keeps an empty row and counts one failed
   chunk *)
let campaign_unit ~jobs ~injections ~first_seed =
  List.map
    (fun iface ->
      match
        Pardriver.run ~seed:first_seed ~jobs ~mode ~iface ~injections ()
      with
      | r -> (r, false)
      | exception e ->
          Printf.printf "campaign-fail iface=%s exn=%s\n%!" iface
            (Printexc.to_string e);
          (Campaign.empty iface, true))
    Workloads.all_ifaces

type chunk = { ch_ns : int; ch_injected : int }

(* [Campaign.run_chunk] composed from public parts, one span per call;
   the accounting repeats the chunk's, so the row must equal the
   driver's *)
let traced_chunk c chunks ~iface ~seed ~budget =
  let t0 = Span.now_ns () in
  let sys = Span.record "sysbuild" (fun () -> Sysbuild.build ~seed mode) in
  c.builds <- c.builds + 1;
  let sim = sys.Sysbuild.sys_sim in
  let check =
    Span.record "workload_setup" (fun () ->
        Workloads.setup sys ~iface ~iters:chunk_iters)
  in
  let inj =
    Injector.create
      ~target:(Sysbuild.cid_of_iface sys iface)
      ~period_ns ~max_injections:budget
      ~rng:(Rng.create (seed * 7919))
      ()
  in
  Span.record "injector_install" (fun () -> Injector.install sim inj);
  let result = Span.record "sim_run" (fun () -> Sim.run sim) in
  let m = Sim.metrics sim in
  add_metrics c m;
  c.events <- c.events + Sg_obs.Sink.count (Sim.obs sim);
  let injected = Metrics.injections m in
  let failstops = Metrics.outcome_count m "failstop" in
  let hangs = Metrics.outcome_count m "hang" in
  let recovered, other =
    match result with
    | Sim.Completed ->
        if check () = [] then (failstops, hangs) else (0, hangs + failstops)
    | Sim.Fatal (Sim.Fatal_segfault _ | Sim.Fatal_propagated _ | Sim.Fatal_hang _)
      ->
        (failstops, hangs)
    | Sim.Fatal (Sim.Fatal_uncaught _) | Sim.Deadlock ->
        (max 0 (failstops - 1), hangs + min 1 failstops)
  in
  let first_access = Hist.create () in
  Hist.merge first_access (Metrics.first_access_hist m);
  chunks := { ch_ns = Span.now_ns () - t0; ch_injected = injected } :: !chunks;
  {
    Campaign.r_iface = iface;
    r_injected = injected;
    r_recovered = recovered;
    r_segfault = Metrics.outcome_count m "segfault";
    r_propagated = Metrics.outcome_count m "propagated";
    r_other = other;
    r_undetected = Metrics.outcome_count m "undetected";
    r_reboots = Metrics.reboots m;
    r_first_access = first_access;
    r_episodes = [];
  }

(* [Campaign.run]'s budget loop over the traced chunks *)
let traced_campaign_unit c chunks seed =
  List.map
    (fun iface ->
      let rec go acc chunk_seed =
        let remaining = round_injections - acc.Campaign.r_injected in
        if remaining <= 0 then acc
        else
          go
            (Campaign.add acc
               (traced_chunk c chunks ~iface ~seed:chunk_seed ~budget:remaining))
            (chunk_seed + 1)
      in
      go (Campaign.empty iface) (campaign_seed seed))
    Workloads.all_ifaces

let injected rows = isum (List.map (fun r -> r.Campaign.r_injected) rows)

(* one timed round of the shipped driver *)
let campaign_round p seed =
  let t0 = Span.now_ns () in
  let results =
    campaign_unit ~jobs:1 ~injections:round_injections ~first_seed:(campaign_seed seed)
  in
  let ns = Span.now_ns () - t0 in
  let rows = List.map fst results in
  let raised = List.length (List.filter snd results) in
  let inj = injected rows in
  p.p_attempted <- p.p_attempted + inj + raised;
  p.p_failed <- p.p_failed + raised;
  sample p ~ops:inj ~ns;
  rows

(* rounds repeat the same inputs, so each must repeat the first's rows *)
let same_rows first rows =
  match !first with
  | None -> first := Some rows
  | Some f -> check (rows_text f = rows_text rows) "campaign: a repeated round changed its rows"

let campaign_pass ?between p ~stop seed =
  let first = ref None in
  rounds ?between ~stop (fun () -> same_rows first (campaign_round p seed))

(* ---------- dst ---------- *)

type dst_rec = {
  d_seed : int;
  d_class : string;
  d_detail : string;
  d_spans : int list;  (** stitched episode spans, virtual ns *)
}

let rec_of_outcome seed = function
  | Error msg ->
      { d_seed = seed; d_class = "compile-error"; d_detail = msg; d_spans = [] }
  | Ok o ->
      {
        d_seed = seed;
        d_class = Exec.verdict_class o.Exec.oc_verdict;
        d_detail = String.concat "; " (Exec.verdict_detail o.Exec.oc_verdict);
        d_spans = List.map Episode.span_ns o.Exec.oc_episodes;
      }

let next_dst_seed s = if s >= dst_window then 1 else s + 1

(* [n] consecutive seeds through the shipped campaign driver, restarting
   after each failing seed (and at the window's end) so failures are
   counted instead of ending the unit; a seed whose task raised becomes
   an "exception" record *)
let dst_loop ~jobs ~n ~on_rec start =
  let cursor = ref start and done_ = ref 0 in
  while !done_ < n do
    let last = ref (!cursor - 1) in
    (match
       Dst.run_seeds ~jobs
         ~on_report:(fun r ->
           last := r.Dst.rr_seed;
           incr done_;
           on_rec (rec_of_outcome r.Dst.rr_seed r.Dst.rr_result))
         ~seed:!cursor
         ~count:(min (dst_window - !cursor + 1) (n - !done_))
         ()
     with
    | _ -> ()
    | exception e ->
        incr last;
        incr done_;
        on_rec
          {
            d_seed = !last;
            d_class = "exception";
            d_detail = Printexc.to_string e;
            d_spans = [];
          });
    cursor := next_dst_seed !last
  done

(* every DST consumer shares this bookkeeping: the records in seed
   order, each failing seed listed once against the ledger, and a seed
   met again must repeat its verdict *)
type dst_book = {
  b_classes : (int, string) Hashtbl.t;
  mutable b_recs : dst_rec list;  (** newest first *)
}

let dst_book () = { b_classes = Hashtbl.create 4096; b_recs = [] }
let clip n s = if String.length s <= n then s else String.sub s 0 n ^ "..."

let book_rec b r =
  b.b_recs <- r :: b.b_recs;
  (* a seed that raised has no verdict to compare; a later verdict
     replaces it *)
  match Hashtbl.find_opt b.b_classes r.d_seed with
  | Some cls when cls <> "exception" && r.d_class <> "exception" ->
      check (cls = r.d_class)
        (Printf.sprintf "dst: seed %d gave %s, earlier %s" r.d_seed r.d_class cls)
  | Some _ -> if r.d_class <> "exception" then Hashtbl.replace b.b_classes r.d_seed r.d_class
  | None ->
      Hashtbl.replace b.b_classes r.d_seed r.d_class;
      if r.d_class <> "pass" then
        Printf.printf "dst-fail seed=%d class=%s ledger=%s detail=%s\n%!"
          r.d_seed r.d_class
          (match List.assoc_opt r.d_seed dst_ledger with
          | Some what -> "known(" ^ what ^ ")"
          | None -> "NEW")
          (clip 160 r.d_detail)

(* the outcome set's DST unit, on one domain *)
let dst_unit seed =
  let b = dst_book () in
  dst_loop ~jobs:1 ~n:dst_unit_seeds ~on_rec:(book_rec b) (dst_start seed);
  List.rev b.b_recs

let dst_text unit =
  String.concat "\n"
    (List.map
       (fun r ->
         Printf.sprintf "%d %s %s" r.d_seed r.d_class
           (String.concat "," (List.map string_of_int r.d_spans)))
       unit)

(* [Dst.run_seed] composed from public parts; the oracle folds and the
   system build Exec performs internally are re-timed on the side *)
type dst_trace = {
  t_counts : counts;
  mutable t_events : int list;
  mutable t_side_ns : int;  (** re-timing work, outside the seeds' cost *)
}

let dst_trace () = { t_counts = counts (); t_events = []; t_side_ns = 0 }

let traced_dst_seed t seed =
  let sc = Span.record "scenario" (fun () -> Dst.scenario_of_seed seed) in
  match Span.record "exec" (fun () -> Exec.run sc) with
  | exception e ->
      {
        d_seed = seed;
        d_class = "exception";
        d_detail = Printexc.to_string e;
        d_spans = [];
      }
  | o ->
      let t0 = Span.now_ns () in
      ignore
        (Span.record "sysbuild" (fun () -> Sysbuild.build ~seed:sc.Exec.sc_seed mode));
      ignore
        (Span.record "check" (fun () ->
             Sg_obs.Check.run ~completed:(o.Exec.oc_result = Sim.Completed)
               o.Exec.oc_stream));
      ignore (Span.record "episode" (fun () -> Episode.of_events o.Exec.oc_stream));
      let m = Metrics.create () in
      List.iter (Metrics.feed m) o.Exec.oc_stream;
      add_metrics t.t_counts m;
      t.t_side_ns <- t.t_side_ns + (Span.now_ns () - t0);
      t.t_counts.builds <- t.t_counts.builds + 1;
      t.t_counts.events <- t.t_counts.events + o.Exec.oc_events;
      t.t_events <- o.Exec.oc_events :: t.t_events;
      rec_of_outcome seed (Ok o)

(* [n] consecutive traced seeds from [start]; returns the next seed *)
let traced_dst_seeds t b ~n start =
  let s = ref start in
  for _ = 1 to n do
    book_rec b (traced_dst_seed t !s);
    s := next_dst_seed !s
  done;
  t.t_counts.ops <- t.t_counts.ops + n;
  !s

(* ---------- web ---------- *)

let web_text outcomes =
  String.concat "\n" (List.map (fun o -> Reqjoin.to_json o.Loadgen.oc_join) outcomes)

let web_checks cfg joins =
  List.iter
    (fun j ->
      let open Reqjoin in
      check
        (j.tj_offered = cfg.Loadgen.lg_requests
        && j.tj_offered = j.tj_served + j.tj_dropped + j.tj_errors + j.tj_failed)
        "web: offered <> served + dropped + errors + failed";
      List.iter
        (fun (name, h) ->
          if Hist.n h > 0 then
            check
              (Hist.percentile h 0.5 <= Hist.percentile h 0.99
              && Hist.percentile h 0.99 <= Hist.percentile h 0.999)
              ("web: p50 <= p99 <= p999 fails for the " ^ name ^ " population"))
        [ ("all", j.tj_all); ("clean", j.tj_clean); ("shadowed", j.tj_shadowed) ])
    joins

let web_failed j =
  let open Reqjoin in
  j.tj_dropped + j.tj_errors + j.tj_failed

(* one timed round of the shipped sweep; [None] when it raised, which
   fails every request of the round *)
let web_round p cfg =
  let t0 = Span.now_ns () in
  match Loadgen.sweep ~jobs:1 ~mode ~periods:web_periods cfg with
  | exception e ->
      Printf.printf "web-fail exn=%s\n%!" (Printexc.to_string e);
      let n = cfg.Loadgen.lg_requests * List.length web_periods in
      p.p_attempted <- p.p_attempted + n;
      p.p_failed <- p.p_failed + n;
      None
  | outcomes ->
      let ns = Span.now_ns () - t0 in
      let joins = List.map (fun o -> o.Loadgen.oc_join) outcomes in
      List.iter
        (fun j ->
          p.p_attempted <- p.p_attempted + j.Reqjoin.tj_offered;
          p.p_failed <- p.p_failed + web_failed j)
        joins;
      sample p ~ops:(isum (List.map (fun j -> j.Reqjoin.tj_served) joins)) ~ns;
      Some outcomes

(* the first round's report is checked; later rounds must repeat it *)
let same_report cfg first outcomes =
  match !first with
  | None ->
      web_checks cfg (List.map (fun o -> o.Loadgen.oc_join) outcomes);
      first := Some outcomes
  | Some f ->
      check (web_text f = web_text outcomes) "web: a repeated round changed its Reqjoin report"

let web_pass ?between p ~stop seed =
  let cfg = web_cfg seed in
  let first = ref None in
  rounds ?between ~stop (fun () -> Option.iter (same_report cfg first) (web_round p cfg));
  match !first with
  | Some f -> f
  | None -> failwith "web: every round raised"

(* [Loadgen.run_open] composed from public parts *)
let traced_web_run c ~period cfg =
  let sys =
    Span.record "sysbuild" (fun () -> Sysbuild.build ~seed:cfg.Loadgen.lg_seed mode)
  in
  c.builds <- c.builds + 1;
  let server = Span.record "server_install" (fun () -> Server.install sys) in
  let result =
    Span.record "loadgen_run" (fun () ->
        Loadgen.run ?fault_period_ns:period cfg sys server)
  in
  let sim = sys.Sysbuild.sys_sim in
  let episodes =
    Span.record "episode" (fun () ->
        Episode.of_events (Sg_obs.Sink.events (Sim.obs sim)))
  in
  let join =
    Span.record "reqjoin" (fun () ->
        Reqjoin.join ~episodes result.Loadgen.lr_reqs)
  in
  add_metrics c (Sim.metrics sim);
  c.events <- c.events + Sg_obs.Sink.count (Sim.obs sim);
  c.ops <- c.ops + join.Reqjoin.tj_served;
  {
    Loadgen.oc_fault_period_ns = period;
    oc_result = result;
    oc_join = join;
    oc_reboots = Sim.reboots sim;
  }

let traced_web_unit c seed =
  let cfg = web_cfg seed in
  List.map (fun period -> traced_web_run c ~period cfg) web_periods

(* host ns per invocation of one fault-free web half in [mode] *)
let fault_free_ns_per_inv mode seed =
  let cfg = web_cfg seed in
  let sys = Sysbuild.build ~seed:cfg.Loadgen.lg_seed mode in
  let server = Server.install sys in
  let t0 = Span.now_ns () in
  ignore (Loadgen.run cfg sys server);
  let ns = Span.now_ns () - t0 in
  idiv ns (Metrics.invocations (Sim.metrics sys.Sysbuild.sys_sim))

(* the attribution passes: the fault-free web half in the base,
   generated-stub and interpreted-stub systems, alternating, at least
   [min_reps] times and until [deadline] *)
let attribution ~deadline ~min_reps seed =
  let base = ref [] and gen = ref [] and interp = ref [] in
  let rec go n =
    base := fault_free_ns_per_inv Sysbuild.Base seed :: !base;
    gen := fault_free_ns_per_inv Sg_genstubs.Gen_stubset.mode seed :: !gen;
    interp := fault_free_ns_per_inv mode seed :: !interp;
    if n + 1 < min_reps || Span.now_ns () < deadline then go (n + 1)
  in
  go 0;
  let i = median !interp in
  Printf.printf
    "attribution (fault-free web half, ns/inv, median of %d): base %.1f gen %.1f superglue %.1f\n%!"
    (List.length !interp) (median !base) (median !gen) i;
  [
    ("c3.stub_ns_per_inv", i -. median !base);
    ("core.interp_ns_per_inv", i -. median !gen);
  ]

(* ---------- setup ---------- *)

type workload = Campaign_w | Web_w

let workload_name = function Campaign_w -> "campaign" | Web_w -> "web"

(* process ready for its first operation: the six builtins compiled,
   their recovery bounds analysed, the first system built and its
   first operation set up *)
let setup_once ~trace w seed =
  let timed name f = if trace then Span.record name f else f () in
  let arts =
    timed "compile" (fun () ->
        List.map
          (fun n -> Compiler.compile ~name:n (Compiler.builtin_source n))
          Compiler.builtin_names)
  in
  ignore (timed "wcr" (fun () -> Wcr.analyze arts));
  match w with
  | Campaign_w ->
      let sys =
        timed "sysbuild" (fun () -> Sysbuild.build ~seed:(campaign_seed seed) mode)
      in
      let (_check : unit -> string list) =
        timed "workload_setup" (fun () ->
            Workloads.setup sys ~iface:(List.hd Workloads.all_ifaces)
              ~iters:chunk_iters)
      in
      ()
  | Web_w ->
      let cfg = web_cfg seed in
      let sys =
        timed "sysbuild" (fun () -> Sysbuild.build ~seed:cfg.Loadgen.lg_seed mode)
      in
      ignore (timed "server_install" (fun () -> Server.install sys))

(* set-ups timed before the first operation, and between two rounds of
   an end-to-end run, so that the median spans the run's host phases *)
let setup_reps = 31
let setup_reps_between = 10

let setup ?(reps = setup_reps) ~trace w seed =
  List.init reps (fun _ ->
      let t0 = Span.now_ns () in
      setup_once ~trace w seed;
      Span.now_ns () - t0)

(* ---------- the pinned outcome set ---------- *)

type outcome_set = {
  o_table2 : Campaign.row list;
  o_campaign : Campaign.row list;
  o_dst : dst_rec list;
  o_web : Loadgen.outcome list;
}

let digests o =
  [
    ("table2", Digest.to_hex (Digest.string (rows_text o.o_table2)));
    ("campaign", Digest.to_hex (Digest.string (rows_text o.o_campaign)));
    ("dst", Digest.to_hex (Digest.string (dst_text o.o_dst)));
    ("web", Digest.to_hex (Digest.string (web_text o.o_web)));
  ]

(* pins file: one "<seed> <unit> <md5>" line per pinned digest *)
let read_pins path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file -> List.rev acc
        | l -> (
            match String.split_on_char ' ' (String.trim l) with
            | [ s; u; d ] when int_of_string_opt s <> None ->
                go ((int_of_string s, u, d) :: acc)
            | _ -> go acc)
      in
      let pins = go [] in
      close_in ic;
      pins

let check_digests ~pins seed o =
  List.iter
    (fun (u, d) ->
      let pinned =
        List.find_map
          (fun (s, pu, pd) -> if s = seed && pu = u then Some pd else None)
          pins
      in
      Printf.printf "digest %d %s %s (%s)\n%!" seed u d
        (match pinned with
        | None -> "not pinned"
        | Some p when p = d -> "matches pin"
        | Some _ -> "PIN MISMATCH");
      match pinned with
      | Some p -> check (p = d) ("pinned " ^ u ^ " digest changed")
      | None -> ())
    (digests o)

let sim_metrics o =
  let us ns = float_of_int ns /. 1000.0 in
  let all =
    Hist.create ~mode:(Hist.mode (List.hd o.o_web).Loadgen.oc_join.Reqjoin.tj_all) ()
  in
  List.iter (fun oc -> Hist.merge all oc.Loadgen.oc_join.Reqjoin.tj_all) o.o_web;
  let faulted = List.nth o.o_web 1 in
  let first_access = Hist.create () in
  List.iter (fun r -> Hist.merge first_access r.Campaign.r_first_access) o.o_campaign;
  let recovered = isum (List.map (fun r -> r.Campaign.r_recovered) o.o_table2) in
  let activated =
    isum
      (List.map (fun r -> r.Campaign.r_injected - r.Campaign.r_undetected) o.o_table2)
  in
  let err_pp =
    mean
      (List.map
         (fun r ->
           let p =
             List.find
               (fun p -> p.Sg_harness.Paper.p_iface = r.Campaign.r_iface)
               Sg_harness.Paper.table2
           in
           Float.abs
             ((100.0 *. Campaign.success_rate r) -. p.Sg_harness.Paper.p_success_pct))
         o.o_table2)
  in
  let spans = List.concat_map (fun r -> r.d_spans) o.o_dst in
  Printf.printf
    "outcome set: %d request(s), %d first access(es) p99 %.3f us, %d episode(s) p99 %.3f us\n%!"
    (Hist.n all) (Hist.n first_access)
    (us (Hist.percentile first_access 0.99))
    (List.length spans)
    (ipct 0.99 spans /. 1000.0);
  [
    ("sim_req_p50_us", us (Hist.percentile all 0.5));
    ("sim_req_p99_us", us (Hist.percentile all 0.99));
    ( "sim_shadow_p99_us",
      us (Hist.percentile faulted.Loadgen.oc_join.Reqjoin.tj_shadowed 0.99) );
    (* means, not p99s: both p99s sit on the model's longest recovery
       path and read the same for most seeds *)
    ( "sim_first_access_mean_us",
      idiv (Hist.sum first_access) (Hist.n first_access) /. 1000.0 );
    ("sim_episode_mean_us", idiv (isum spans) (List.length spans) /. 1000.0);
    ("recovered_share", idiv recovered activated);
    ("table2_err_pp", err_pp);
  ]

(* ---------- metric tables (names and units as in BENCHMARK.json) ---------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("ops_per_probe", "ops/probe");
    ("peak_rss_mb", "MiB");
    ("sim_req_p50_us", "us");
    ("sim_req_p99_us", "us");
    ("sim_shadow_p99_us", "us");
    ("sim_first_access_mean_us", "us");
    ("sim_episode_mean_us", "us");
    ("recovered_share", "ratio");
    ("table2_err_pp", "pp");
  ]

let per_layer =
  [
    ("core.compile_ms", "ms");
    ("analysis.wcr_ms", "ms");
    ("components.sysbuild_us_p50", "us");
    ("components.sysbuild_us_p99", "us");
    ("components.builds_per_kop", "count/kop");
    ("components.workload_setup_us", "us");
    ("os.sim_run_ms_p50", "ms");
    ("os.sim_run_ms_p99", "ms");
    ("os.host_ns_per_inv", "ns/inv");
    ("os.invocations_per_op", "inv/op");
    ("os.minor_words_per_inv", "words/inv");
    ("c3.stub_ns_per_inv", "ns/inv");
    ("core.interp_ns_per_inv", "ns/inv");
    ("c3.walks_per_op", "count/op");
    ("c3.reboots_per_op", "count/op");
    ("c3.upcalls_per_op", "count/op");
    ("c3.storage_ops_per_op", "count/op");
    ("swifi.chunk_ms_p50", "ms");
    ("swifi.chunk_ms_p99", "ms");
    ("swifi.injections_per_chunk", "count");
    ("swifi.useful_chunk_ratio", "ratio");
    ("dst.scenario_us_p50", "us");
    ("dst.exec_us_p50", "us");
    ("dst.exec_us_p99", "us");
    ("dst.events_per_seed", "count");
    ("obs.check_us_per_seed", "us");
    ("obs.episode_us_per_seed", "us");
    ("obs.episode_fold_ms", "ms");
    ("obs.reqjoin_ms", "ms");
    ("obs.events_per_op", "count/op");
    ("web.loadgen_run_s", "s");
    ("web.invocations_per_req", "inv/req");
    ("web.server_install_us", "us");
    ("util.pool_efficiency", "ratio");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections_per_kop", "count/kop");
    ("trace_overhead_pct", "%");
    ("residual_pct", "%");
    ("host.ops_per_s", "ops/s");
    ("host.probe_ms", "ms");
  ]

(* ---------- per-layer figures ---------- *)

let ms ns = ns /. 1e6
let us ns = ns /. 1e3

(* host ns per operation of a pass: the median round *)
let op_ns p = fdiv 1e9 (median p.p_rates)

(* figures every workload's own traced pass yields. [traced] and
   [untraced] give the tracing overhead and the raw host throughput;
   [wall_ns] is the traced pass's wall time, of which the
   part no top level span covers is the residual *)
let aggregate_layers ~spans ~(c : counts) ~run_span ~traced ~untraced ~wall_ns =
  let run = List.map float_of_int (Span.durations run_span spans) in
  let ops = float_of_int c.ops in
  let inv = float_of_int c.inv in
  let words = fsum (List.map (fun s -> s.Span.minor_words) spans) in
  let majors = isum (List.map (fun s -> s.Span.major_collections) spans) in
  let sysbuild = List.map float_of_int (Span.durations "sysbuild" spans) in
  [
    ("components.sysbuild_us_p50", us (median sysbuild));
    ("components.sysbuild_us_p99", us (pct 0.99 sysbuild));
    ("components.builds_per_kop", 1000.0 *. fdiv (float_of_int c.builds) ops);
    ("os.sim_run_ms_p50", ms (median run));
    ("os.sim_run_ms_p99", ms (pct 0.99 run));
    ("os.host_ns_per_inv", fdiv (fsum run) inv);
    ("os.invocations_per_op", fdiv inv ops);
    ("os.minor_words_per_inv", fdiv (Span.total_words run_span spans) inv);
    ("c3.walks_per_op", idiv c.walks c.ops);
    ("c3.reboots_per_op", idiv c.reboots c.ops);
    ("c3.upcalls_per_op", idiv c.upcalls c.ops);
    ("c3.storage_ops_per_op", idiv c.storage c.ops);
    ("obs.events_per_op", idiv c.events c.ops);
    ("gc.minor_words_per_op", fdiv words ops);
    ("gc.major_collections_per_kop", 1000.0 *. idiv majors c.ops);
    ("trace_overhead_pct", 100.0 *. (fdiv (op_ns traced) (op_ns untraced) -. 1.0));
    ("residual_pct", 100.0 *. idiv (wall_ns - Span.covered_ns spans) wall_ns);
    ("host.ops_per_s", median untraced.p_rates);
  ]

let campaign_layers spans chunks =
  let chunk_ms = List.map (fun ch -> float_of_int ch.ch_ns /. 1e6) chunks in
  let n = List.length chunks in
  [
    ( "components.workload_setup_us",
      us (median (List.map float_of_int (Span.durations "workload_setup" spans))) );
    ("swifi.chunk_ms_p50", median chunk_ms);
    ("swifi.chunk_ms_p99", pct 0.99 chunk_ms);
    ( "swifi.injections_per_chunk",
      idiv (isum (List.map (fun ch -> ch.ch_injected) chunks)) n );
    ( "swifi.useful_chunk_ratio",
      idiv (List.length (List.filter (fun ch -> ch.ch_injected > 0) chunks)) n );
  ]

(* [par_ns] is the wall time of the same seeds at [dst_jobs] domains,
   against which the traced seeds' serial run_seed time gives the pool's
   efficiency *)
let dst_layers spans t ~par_ns =
  let d name = List.map float_of_int (Span.durations name spans) in
  let seeds = float_of_int t.t_counts.ops in
  let busy_ns = fsum (d "scenario") +. fsum (d "exec") in
  [
    ("util.pool_efficiency", fdiv busy_ns (float_of_int (dst_jobs * par_ns)));
    ("dst.scenario_us_p50", us (median (d "scenario")));
    ("dst.exec_us_p50", us (median (d "exec")));
    ("dst.exec_us_p99", us (pct 0.99 (d "exec")));
    ("dst.events_per_seed", mean (List.map float_of_int t.t_events));
    ("obs.check_us_per_seed", us (fdiv (fsum (d "check")) seeds));
    ("obs.episode_us_per_seed", us (fdiv (fsum (d "episode")) seeds));
  ]

let web_layers spans (c : counts) =
  let d name = List.map float_of_int (Span.durations name spans) in
  [
    ("obs.episode_fold_ms", ms (median (d "episode")));
    ("obs.reqjoin_ms", ms (median (d "reqjoin")));
    ("web.loadgen_run_s", median (d "loadgen_run") /. 1e9);
    ("web.invocations_per_req", idiv c.inv c.ops);
    ("web.server_install_us", us (median (d "server_install")));
  ]

(* ---------- the two modes ---------- *)

type run = {
  r_pass : pass;
  r_metrics : (string * float) list;
}

let now_plus s = Span.now_ns () + int_of_float (s *. 1e9)

(* the outcome set: fixed-size inputs from the seed, plus the canonical
   Table II campaign, run after the timed window on one domain, so that
   no pool race can touch the digests *)
let outcome_set seed =
  {
    o_table2 =
      List.map fst
        (campaign_unit ~jobs:1 ~injections:table2_injections ~first_seed:table2_seed);
    o_campaign =
      List.map fst
        (campaign_unit ~jobs:1 ~injections:round_injections
           ~first_seed:(campaign_seed seed));
    o_dst = dst_unit seed;
    o_web = web_pass (pass ()) ~stop:once seed;
  }

let end_to_end_run w ~seed ~seconds ~pins =
  let first_setups = setup ~trace:false w seed in
  let drive ?between p ~stop =
    match w with
    | Campaign_w -> ignore (campaign_pass ?between p ~stop seed)
    | Web_w -> ignore (web_pass ?between p ~stop seed)
  in
  (* peak memory after a fixed amount of work, done before the timed
     window: the probe's own allocation moves the program's GC timing,
     and with it the high-water mark *)
  let warm =
    pass
      ~rss_ops:
        (match w with
        | Campaign_w -> 10 * 6 * round_injections
        | Web_w -> 5 * 2 * (web_cfg seed).Loadgen.lg_requests)
      ()
  in
  drive warm ~stop:(fun () -> warm.p_rss <> None);
  let p = pass ~probe:true () in
  (* the set-ups between two rounds follow the probe run that closed
     the round, which scales them to the reference host *)
  let setup_ns = ref [] and setup_ref = ref [] in
  let between () =
    let ns = setup ~reps:setup_reps_between ~trace:false w seed in
    setup_ns := ns @ !setup_ns;
    setup_ref :=
      List.map (fun n -> float_of_int n *. Probe.reference_ns /. p.p_last_probe_ns) ns
      @ !setup_ref
  in
  drive ~between p ~stop:(past (now_plus seconds));
  Printf.printf
    "setup: cold %.6f s, median of the first %d %.6f s; between rounds, median of %d %.6f s, at the reference host's speed %.6f s\n%!"
    (float_of_int (List.hd first_setups) /. 1e9)
    setup_reps (ipct 0.5 first_setups /. 1e9)
    (List.length !setup_ns) (ipct 0.5 !setup_ns /. 1e9) (median !setup_ref /. 1e9);
  let rss_end = peak_rss_mib () in
  let rss = Option.get warm.p_rss in
  let o = outcome_set seed in
  check_digests ~pins seed o;
  Printf.printf
    "rounds: %d rate sample(s), ops/s p01 %.1f median %.1f p95 %.1f; probe ms p01 %.3f median %.3f p95 %.3f; ops/probe p01 %.1f median %.1f p95 %.1f; peak RSS %.1f MiB after %d untimed ops, %.1f MiB at the deadline\n%!"
    (List.length p.p_rates) (pct 0.01 p.p_rates) (median p.p_rates)
    (pct 0.95 p.p_rates)
    (ms (pct 0.01 p.p_probe_ns)) (ms (median p.p_probe_ns)) (ms (pct 0.95 p.p_probe_ns))
    (pct 0.01 p.p_per_probe) (median p.p_per_probe) (pct 0.95 p.p_per_probe)
    rss warm.p_ops rss_end;
  {
    r_pass =
      {
        p with
        p_attempted = warm.p_attempted + p.p_attempted;
        p_failed = warm.p_failed + p.p_failed;
      };
    r_metrics =
      [
        ("setup_s", median !setup_ref /. 1e9);
        ("ops_per_probe", median p.p_per_probe);
        ("peak_rss_mb", rss);
      ]
      @ sim_metrics o;
  }

let setup_layers spans =
  let d name = List.map float_of_int (Span.durations name spans) in
  [ ("core.compile_ms", ms (median (d "compile"))); ("analysis.wcr_ms", ms (median (d "wcr"))) ]

(* one traced unit of another workload, for its workload-specific
   layer figures *)
let foreign_campaign seed =
  let c = counts () and chunks = ref [] in
  ignore (traced_campaign_unit c chunks seed);
  campaign_layers (Span.take ()) !chunks

(* DST: the unit's seeds through the shipped [-j 2] driver first, cold,
   as a user runs it; then the same seeds traced, each of which must
   repeat its [-j 2] verdict class *)
let foreign_dst seed =
  let b = dst_book () in
  let t0 = Span.now_ns () in
  dst_loop ~jobs:dst_jobs ~n:dst_unit_seeds ~on_rec:(book_rec b) (dst_start seed);
  let par_ns = Span.now_ns () - t0 in
  let t = dst_trace () in
  ignore (traced_dst_seeds t b ~n:dst_unit_seeds (dst_start seed));
  dst_layers (Span.take ()) t ~par_ns

let foreign_web seed =
  let c = counts () in
  ignore (traced_web_unit c seed);
  let layers = web_layers (Span.take ()) c in
  layers @ attribution ~deadline:0 ~min_reps:3 seed

(* time [f ()] as one rate sample of [n] operations in [p], less the
   measurement side work it reports; returns the wall time *)
let timed_sample p ~n f =
  let t0 = Span.now_ns () in
  let side = f () in
  let ns = Span.now_ns () - t0 in
  sample p ~ops:n ~ns:(ns - side);
  ns

(* Untraced and traced rounds alternate, so both see the same host
   phases and the overhead compares like with like. *)
let trace_run w ~seed ~seconds =
  ignore (setup ~trace:true w seed);
  let setup_l = setup_layers (Span.take ()) in
  let p = pass () and pt = pass () in
  let own_layers =
    match w with
    | Campaign_w ->
        let first = ref None and c = counts () and chunks = ref [] in
        let wall_ns = ref 0 in
        rounds ~stop:(past (now_plus seconds)) (fun () ->
            let rows = campaign_round p seed in
            same_rows first rows;
            let traced = ref [] in
            wall_ns :=
              !wall_ns
              + timed_sample pt ~n:(injected rows) (fun () ->
                    traced := traced_campaign_unit c chunks seed;
                    0);
            check
              (rows_text !traced = rows_text rows)
              "campaign: traced composition differs from the Pardriver rows");
        c.ops <- pt.p_ops;
        let spans = Span.take () in
        aggregate_layers ~spans ~c ~run_span:"sim_run" ~traced:pt ~untraced:p
          ~wall_ns:!wall_ns
        @ campaign_layers spans !chunks @ foreign_dst seed @ foreign_web seed
    | Web_w ->
        let cfg = web_cfg seed in
        let first = ref None and c = counts () and wall_ns = ref 0 in
        rounds ~stop:(past (now_plus (seconds *. 2.0 /. 3.0))) (fun () ->
            match web_round p cfg with
            | None -> ()
            | Some outcomes ->
                same_report cfg first outcomes;
                let traced = ref [] in
                wall_ns :=
                  !wall_ns
                  + timed_sample pt
                      ~n:(isum (List.map (fun o -> o.Loadgen.oc_join.Reqjoin.tj_served) outcomes))
                      (fun () ->
                        traced := traced_web_unit c seed;
                        0);
                check
                  (web_text !traced = web_text outcomes)
                  "web: traced composition differs from the Loadgen.sweep report");
        let spans = Span.take () in
        let attr = attribution ~deadline:(now_plus (seconds /. 3.0)) ~min_reps:3 seed in
        aggregate_layers ~spans ~c ~run_span:"loadgen_run" ~traced:pt ~untraced:p
          ~wall_ns:!wall_ns
        @ web_layers spans c @ attr @ foreign_campaign seed @ foreign_dst seed
  in
  (* the probe runs once, after the rounds, so that its allocation
     cannot move the traced and untraced rounds it would sit between *)
  let probe_ms = ms (Probe.run_ns ~min_ns:200_000_000) in
  { r_pass = p; r_metrics = setup_l @ own_layers @ [ ("host.probe_ms", probe_ms) ] }

(* ---------- main ---------- *)

let usage () =
  prerr_endline
    "usage: sgbench.exe --workload campaign|web --seed N --seconds S \
     --trace 0|1 [--pins FILE]";
  exit 2

let () =
  let workload = ref None
  and seed = ref None
  and seconds = ref None
  and trace = ref None
  and pins = ref "" in
  let rec parse = function
    | "--workload" :: v :: rest ->
        workload :=
          (match v with
          | "campaign" -> Some Campaign_w
          | "web" -> Some Web_w
          | _ -> usage ());
        parse rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        parse rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        parse rest
    | "--trace" :: v :: rest ->
        trace :=
          (match v with "0" -> Some false | "1" -> Some true | _ -> usage ());
        parse rest
    | "--pins" :: v :: rest ->
        pins := v;
        parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when seed >= 0 && seconds > 0.0 ->
      Sg_util.Pool.tune_gc ();
      let pins = if !pins = "" then [] else read_pins !pins in
      let cal0 = calibration_ns () in
      let r =
        if trace then trace_run w ~seed ~seconds
        else end_to_end_run w ~seed ~seconds ~pins
      in
      let cal1 = calibration_ns () in
      Printf.printf
        "host {\"cores\": %d, \"ocaml\": %S, \"calibration_ns_before\": %d, \"calibration_ns_after\": %d}\n"
        (Domain.recommended_domain_count ())
        Sys.ocaml_version cal0 cal1;
      let table = if trace then per_layer else end_to_end in
      List.iter
        (fun (name, _) ->
          check (List.mem_assoc name r.r_metrics) ("metric not measured: " ^ name))
        table;
      let value name =
        let v = Option.value ~default:0.0 (List.assoc_opt name r.r_metrics) in
        if Float.is_finite v then v else 0.0
      in
      List.iter
        (fun (name, unit) -> Printf.printf "%-30s %16.6f %s\n" name (value name) unit)
        table;
      Printf.printf
        "%s: attempted %d, failed %d (%s)\n"
        (workload_name w) r.r_pass.p_attempted r.r_pass.p_failed
        (match w with
        | Campaign_w -> "injections; a failure is a driver call that raised"
        | Web_w -> "requests; a failure is a dropped, errored or failed request");
      Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
        !correct r.r_pass.p_attempted r.r_pass.p_failed
        (String.concat ", "
           (List.map
              (fun (name, unit) ->
                Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
                  (value name) unit)
              table))
  | _ -> usage ()
