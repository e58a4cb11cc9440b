(* Golden-trace scheduler determinism: the indexed run-queue backend
   must dispatch threads in bit-for-bit the same order as the legacy
   list-scan backend, on raw fiber workloads and on full component
   systems under crash storms — and the parallel campaign driver must
   produce the same row as the sequential one. *)

open Sg_os
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Campaign = Sg_swifi.Campaign
module Pardriver = Sg_swifi.Pardriver

let trivial_spec =
  {
    Sim.sc_name = "app";
    sc_image_kb = 16;
    sc_init = (fun _ _ -> ());
    sc_boot_init = (fun _ _ -> ());
    sc_dispatch = (fun _ _ _ _ -> Ok Comp.VUnit);
    sc_reflect = (fun _ _ _ _ -> Error Comp.EINVAL);
    sc_usage = (fun _ -> None);
  }

(* a scheduling-heavy fiber mix: priority bands, yields, timed sleeps,
   cross-thread wakeups and mid-run spawns; each fiber records
   (tid, now) at every step, which is exactly the dispatch sequence *)
let dispatch_trace sched =
  let sim = Sim.create ~sched () in
  let app = Sim.register sim trivial_spec in
  let trace = ref [] in
  let step sim = trace := (Sim.current_tid sim, Sim.now sim) :: !trace in
  let blocked_tid = ref (-1) in
  let _ =
    Sim.spawn sim ~prio:5 ~name:"blocker" ~home:app (fun sim ->
        blocked_tid := Sim.current_tid sim;
        step sim;
        Sim.block sim;
        step sim;
        Sim.block sim;
        step sim)
  in
  for i = 0 to 15 do
    ignore
      (Sim.spawn sim ~prio:(i mod 4)
         ~name:(Printf.sprintf "w%d" i)
         ~home:app
         (fun sim ->
           for k = 1 to 12 do
             step sim;
             if k mod 5 = 0 then Sim.sleep_until sim (Sim.now sim + 700)
             else if k mod 7 = 0 then ignore (Sim.wakeup sim !blocked_tid)
             else Sim.yield sim
           done;
           if Sim.current_tid sim mod 6 = 0 then
             ignore
               (Sim.spawn sim ~prio:2 ~name:"late" ~home:app (fun sim ->
                    step sim;
                    Sim.yield sim;
                    step sim))))
  done;
  let _ =
    Sim.spawn sim ~prio:9 ~name:"waker" ~home:app (fun sim ->
        for _ = 1 to 4 do
          step sim;
          ignore (Sim.wakeup sim !blocked_tid);
          Sim.sleep_until sim (Sim.now sim + 300)
        done)
  in
  let result = Sim.run sim in
  (result, List.rev !trace)

let test_dispatch_golden () =
  let scan_res, scan_trace = dispatch_trace `Scan in
  let idx_res, idx_trace = dispatch_trace `Indexed in
  Alcotest.(check bool) "both complete" true (scan_res = idx_res);
  Alcotest.(check int)
    "same dispatch count" (List.length scan_trace) (List.length idx_trace);
  Alcotest.(check (list (pair int int)))
    "identical (tid, at_ns) dispatch sequence" scan_trace idx_trace

(* full component systems: every paper workload under a crash storm,
   compared as complete event streams (seq, at_ns, tid and kind of every
   emission) across the two backends *)
let storm_events ~sched ~mode ~iface =
  let sys = Sysbuild.build ~sched mode in
  let sim = sys.Sysbuild.sys_sim in
  Sg_obs.Sink.set_retention (Sim.obs sim) Sg_obs.Sink.All;
  let check = Workloads.setup sys ~iface ~iters:25 in
  let target = Sysbuild.cid_of_iface sys iface in
  let count = ref 0 in
  Sim.set_on_dispatch sim
    (Some
       (fun sim cid _ ->
         if cid = target then begin
           incr count;
           if !count mod 7 = 0 then begin
             Sim.mark_failed sim cid ~detector:"storm";
             raise (Comp.Crash { cid; detector = "storm" })
           end
         end));
  (match Sim.run sim with
  | Sim.Completed -> ()
  | r -> Alcotest.failf "storm %s: run ended %a" iface Sim.pp_run_result r);
  (match check () with
  | [] -> ()
  | v -> Alcotest.failf "storm %s: %s" iface (String.concat "; " v));
  Sg_obs.Sink.events (Sim.obs sim)

let test_storm_streams_golden () =
  List.iter
    (fun iface ->
      let scan = storm_events ~sched:`Scan ~mode:Superglue.Stubset.mode ~iface in
      let idx =
        storm_events ~sched:`Indexed ~mode:Superglue.Stubset.mode ~iface
      in
      Alcotest.(check int)
        (iface ^ ": same event count")
        (List.length scan) (List.length idx);
      List.iter2
        (fun (a : Sg_obs.Event.t) (b : Sg_obs.Event.t) ->
          if a <> b then
            Alcotest.failf "%s: streams diverge at #%d: %a vs %a" iface
              a.Sg_obs.Event.seq Sg_obs.Event.pp a Sg_obs.Event.pp b)
        scan idx)
    Workloads.all_ifaces

(* the parallel driver: -j 2 and -j 4 must produce exactly the row of
   the sequential -j 1 loop *)
let test_pardriver_rows () =
  List.iter
    (fun (iface, injections) ->
      let run jobs =
        Pardriver.run ~seed:3 ~jobs ~mode:Superglue.Stubset.mode ~iface
          ~injections ()
      in
      let seq_row = run 1 in
      List.iter
        (fun jobs ->
          let row = run jobs in
          if row <> seq_row then
            Alcotest.failf "%s -j %d: %a <> sequential %a" iface jobs
              Campaign.pp_row row Campaign.pp_row seq_row)
        [ 2; 4 ])
    [ ("lock", 40); ("fs", 25) ]

(* chunk streams delivered by the parallel driver match the sequential
   driver's chunk-by-chunk streams, in order *)
let test_pardriver_chunk_streams () =
  let collect jobs =
    let chunks = ref [] in
    let row =
      Pardriver.run ~seed:5 ~jobs ~mode:Superglue.Stubset.mode ~iface:"lock"
        ~injections:30
        ~on_chunk:(fun ~seed events -> chunks := (seed, events) :: !chunks)
        ()
    in
    (row, List.rev !chunks)
  in
  let row1, chunks1 = collect 1 in
  let row4, chunks4 = collect 4 in
  Alcotest.(check bool) "rows equal" true (row1 = row4);
  Alcotest.(check (list int))
    "same chunk seeds in same order" (List.map fst chunks1)
    (List.map fst chunks4);
  List.iter2
    (fun (s, ev1) (_, ev4) ->
      Alcotest.(check int)
        (Printf.sprintf "chunk %d: same stream length" s)
        (List.length ev1) (List.length ev4);
      if ev1 <> ev4 then Alcotest.failf "chunk %d: streams differ" s)
    chunks1 chunks4

let () =
  Alcotest.run "sched"
    [
      ( "golden-trace",
        [
          Alcotest.test_case "fiber dispatch sequence identical" `Quick
            test_dispatch_golden;
          Alcotest.test_case "crash-storm event streams identical" `Quick
            test_storm_streams_golden;
        ] );
      ( "pardriver",
        [
          Alcotest.test_case "-j 1/2/4 rows equal sequential" `Quick
            test_pardriver_rows;
          Alcotest.test_case "-j 4 chunk streams equal -j 1" `Quick
            test_pardriver_chunk_streams;
        ] );
    ]
