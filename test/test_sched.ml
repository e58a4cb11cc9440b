(* Golden-trace scheduler determinism: the dispatcher must reproduce
   pinned dispatch sequences on raw fiber workloads and pinned event
   streams on full component systems under crash storms; its run
   queues must pop the exact lexicographic minimum; and the parallel
   campaign driver must produce the same row as the sequential one. *)

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
let dispatch_trace () =
  let sim = Sim.create () in
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

(* The pins below were taken from the legacy list-scan dispatcher while
   it and the indexed run queue were still asserted to dispatch
   identically; the scan was then deleted. Both digests are MD5s of
   text (one "tid at_ns" line per dispatch step, one JSON line per
   event), so they do not depend on the Marshal format. Re-pin only
   when a change alters dispatch order or the event stream on purpose,
   and give the reason in CHANGES.md. *)
let md5_lines lines =
  Digest.to_hex
    (Digest.string (String.concat "" (List.map (fun l -> l ^ "\n") lines)))

let test_dispatch_golden () =
  let result, trace = dispatch_trace () in
  Alcotest.(check bool) "completes" true (result = Sim.Completed);
  Alcotest.(check int) "dispatch count" 203 (List.length trace);
  Alcotest.(check string)
    "(tid, at_ns) dispatch sequence digest" "eace96479993d26496669a788a3551dd"
    (md5_lines
       (List.map (fun (tid, at_ns) -> Printf.sprintf "%d %d" tid at_ns) trace))

(* full component systems: every paper workload under a crash storm,
   pinned as complete event streams (seq, at_ns, tid and kind of every
   emission) *)
let storm_events ~mode ~iface =
  let sys = Sysbuild.build mode in
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

let storm_pins =
  [
    ("sched", 1020, "887bae0995c7daaa1ce4faf9a3c44d18");
    ("mm", 198, "8dc34e2d7b3a96c1327026a45d4fe89b");
    ("fs", 468, "8ab8bffcc64409a5bc95c0af22054688");
    ("lock", 736, "7c00f3198a0ed3585da67df3b2169284");
    ("evt", 465, "8c419121dda0ea0aa64822138334696b");
    ("timer", 94, "e2e3cf60a71e9a49b9c401b67b5f2360");
  ]

let test_storm_streams_golden () =
  Alcotest.(check (list string))
    "one pin per workload" Workloads.all_ifaces
    (List.map (fun (iface, _, _) -> iface) storm_pins);
  List.iter
    (fun (iface, count, digest) ->
      let events = storm_events ~mode:Superglue.Stubset.mode ~iface in
      Alcotest.(check int) (iface ^ ": event count") count (List.length events);
      Alcotest.(check string)
        (iface ^ ": event stream digest")
        digest
        (md5_lines (List.map Sg_obs.Jsonl.to_string events)))
    storm_pins

(* The run queues against a sorted-list model: random interleavings of
   push, pop and peek, then a drain, where every peek and pop must
   return a key equal to the model's lexicographic minimum, and [None]
   exactly when the model is empty (keys are drawn from small ranges so
   leading components tie often; on fully equal keys any of the tied
   entries is a correct answer). *)
let prop_runq_model (type k) name (module Q : Runq.S with type key = k)
    (gen_key : k QCheck.Gen.t) (print_key : k -> string) =
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun k -> `Push k) gen_key);
          (2, return `Pop);
          (1, return `Peek);
        ])
  in
  let print_op = function
    | `Push k -> "push " ^ print_key k
    | `Pop -> "pop"
    | `Peek -> "peek"
  in
  QCheck.Test.make ~name ~count:300
    (QCheck.make
       QCheck.Gen.(list_size (int_range 0 200) gen_op)
       ~print:(QCheck.Print.list print_op))
    (fun ops ->
      let q = Q.create () in
      (* (key, id) entries, sorted by key; ids tell apart equal keys *)
      let model = ref [] in
      let next_id = ref 0 in
      let is_min = function
        | None -> !model = []
        | Some (k, id) -> (
            match !model with
            | (k0, _) :: _ -> compare k k0 = 0 && List.mem (k, id) !model
            | [] -> false)
      in
      let pop () =
        let top = Q.pop q in
        let ok = is_min top in
        (match top with
        | Some e -> model := List.filter (fun e' -> e' <> e) !model
        | None -> ());
        ok
      in
      let rec drain () =
        if !model = [] then Option.is_none (Q.pop q) else pop () && drain ()
      in
      List.for_all
        (function
          | `Push k ->
              incr next_id;
              Q.push q k !next_id;
              model :=
                List.stable_sort
                  (fun (a, _) (b, _) -> compare a b)
                  ((k, !next_id) :: !model);
              true
          | `Peek -> is_min (Q.peek q)
          | `Pop -> pop ())
        ops
      && drain ())

let prop_ready_model =
  prop_runq_model "Ready pops the model minimum"
    (module Runq.Ready)
    QCheck.Gen.(triple (int_range 0 3) (int_range 0 6) (int_range 0 6))
    (fun (p, l, t) -> Printf.sprintf "(%d,%d,%d)" p l t)

let prop_sleep_model =
  prop_runq_model "Sleep pops the model minimum"
    (module Runq.Sleep)
    QCheck.Gen.(pair (int_range 0 20) (int_range 0 6))
    (fun (u, t) -> Printf.sprintf "(%d,%d)" u t)

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
      ( "runq",
        [
          QCheck_alcotest.to_alcotest prop_ready_model;
          QCheck_alcotest.to_alcotest prop_sleep_model;
        ] );
      ( "pardriver",
        [
          Alcotest.test_case "-j 1/2/4 rows equal sequential" `Quick
            test_pardriver_rows;
          Alcotest.test_case "-j 4 chunk streams equal -j 1" `Quick
            test_pardriver_chunk_streams;
        ] );
    ]
