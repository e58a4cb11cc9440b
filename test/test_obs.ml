(* Unit tests for the sg_obs observability layer: sink retention, the
   log2 histogram, the JSON-lines codec, the metrics fold, and every
   rule of the trace-invariant checker — each with a stream that must
   pass and a corrupted stream that must be rejected. *)

module E = Sg_obs.Event
module Sink = Sg_obs.Sink
module Hist = Sg_obs.Hist
module Jsonl = Sg_obs.Jsonl
module Check = Sg_obs.Check
module Metrics = Sg_obs.Metrics
module Episode = Sg_obs.Episode
module Profile = Sg_obs.Profile
module Reqjoin = Sg_obs.Reqjoin

(* hand-build a stream: (at_ns, tid, kind) triples, seq auto-assigned *)
let stream l =
  List.mapi (fun i (at_ns, tid, kind) -> { E.seq = i; at_ns; tid; kind }) l

let rules vs = List.sort_uniq compare (List.map (fun v -> v.Check.rule) vs)

let check_rules ?mode ?(completed = true) name expected l =
  Alcotest.(check (list string)) name expected (rules (Check.run ?mode ~completed (stream l)))

(* ---------- sink ---------- *)

let span_begin ~span =
  E.Span_begin { span; client = 1; server = 7; fn = "tread" }

let test_sink_retention () =
  let fill sink =
    Sink.emit sink ~at_ns:10 ~tid:1 (span_begin ~span:1);
    Sink.emit sink ~at_ns:20 ~tid:1 (E.Crash { cid = 7; detector = "t" });
    Sink.emit sink ~at_ns:30 ~tid:1
      (E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 5 });
    Sink.emit sink ~at_ns:40 ~tid:1 (E.Span_end { span = 1; server = 7; ok = false })
  in
  let all = Sink.create ~retention:Sink.All () in
  fill all;
  Alcotest.(check int) "All retains everything" 4 (Sink.count all);
  Alcotest.(check (list int))
    "seq assigned in order, oldest first" [ 0; 1; 2; 3 ]
    (List.map (fun e -> e.E.seq) (Sink.events all));
  let rec_ = Sink.create () in
  Alcotest.(check bool) "default retention is Recovery" true
    (Sink.retention rec_ = Sink.Recovery);
  fill rec_;
  Alcotest.(check (list string))
    "Recovery keeps only recovery-relevant kinds" [ "crash"; "reboot" ]
    (List.map (fun e -> E.kind_name e.E.kind) (Sink.events rec_));
  let none = Sink.create ~retention:Sink.Nothing () in
  let seen = ref 0 in
  Sink.subscribe none (fun _ -> incr seen);
  fill none;
  Alcotest.(check int) "Nothing retains no events" 0 (Sink.count none);
  Alcotest.(check int) "subscribers see every emission regardless" 4 !seen;
  Sink.clear all;
  Alcotest.(check int) "clear empties the log" 0 (Sink.count all)

let test_sink_ring () =
  let sink = Sink.create ~retention:Sink.Nothing () in
  for i = 1 to Sink.ring_capacity + 88 do
    Sink.emit sink ~at_ns:i ~tid:1 (E.Crash { cid = 7; detector = "ring" })
  done;
  let ring = Sink.recovery_recent sink in
  Alcotest.(check int) "ring bounded at capacity" Sink.ring_capacity
    (List.length ring);
  Alcotest.(check int) "ring is newest first"
    (Sink.ring_capacity + 88)
    (List.hd ring).E.at_ns;
  Alcotest.(check int) "oldest surviving entry" 89
    (List.nth ring (Sink.ring_capacity - 1)).E.at_ns

let test_sink_ring_exact_capacity () =
  (* exactly ring_capacity emissions: nothing may be pruned away, and
     the ring must hold every event in newest-first order *)
  let sink = Sink.create ~retention:Sink.Nothing () in
  for i = 1 to Sink.ring_capacity do
    Sink.emit sink ~at_ns:i ~tid:1 (E.Crash { cid = 7; detector = "ring" })
  done;
  let ring = Sink.recovery_recent sink in
  Alcotest.(check int) "ring holds exactly capacity" Sink.ring_capacity
    (List.length ring);
  Alcotest.(check int) "newest first" Sink.ring_capacity
    (List.hd ring).E.at_ns;
  Alcotest.(check int) "oldest is the first emission" 1
    (List.nth ring (Sink.ring_capacity - 1)).E.at_ns;
  (* one more emission evicts exactly the oldest *)
  Sink.emit sink ~at_ns:(Sink.ring_capacity + 1) ~tid:1
    (E.Crash { cid = 7; detector = "ring" });
  let ring = Sink.recovery_recent sink in
  Alcotest.(check int) "still at capacity" Sink.ring_capacity
    (List.length ring);
  Alcotest.(check int) "oldest advanced by one" 2
    (List.nth ring (Sink.ring_capacity - 1)).E.at_ns

let test_subscribe_fold_equivalence () =
  (* a boxing subscriber and an unboxed fold subscriber on the same sink
     must observe the same emission sequence *)
  let sink = Sink.create ~retention:Sink.Nothing () in
  let boxed = ref [] and folded = ref [] in
  Sink.subscribe sink (fun e ->
      boxed := (e.E.at_ns, e.E.tid, e.E.kind) :: !boxed);
  Sink.subscribe_fold sink (fun ~at_ns ~tid kind ->
      folded := (at_ns, tid, kind) :: !folded);
  List.iteri
    (fun i kind -> Sink.emit sink ~at_ns:(10 * i) ~tid:(i mod 4) kind)
    [
      span_begin ~span:1;
      E.Crash { cid = 7; detector = "t" };
      E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 5 };
      E.Note { name = "n"; data = "d" };
      E.Span_end { span = 1; server = 7; ok = true };
    ];
  Alcotest.(check int) "both saw every emission" 5 (List.length !boxed);
  Alcotest.(check bool) "identical observation sequences" true
    (!boxed = !folded)

(* ---------- histogram ---------- *)

let test_hist_buckets () =
  List.iter
    (fun (v, b) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) b (Hist.bucket_of v))
    [ (-5, 0); (0, 0); (1, 1); (2, 2); (3, 2); (4, 3); (7, 3); (8, 4); (1023, 10) ];
  List.iter
    (fun (i, u) ->
      Alcotest.(check int) (Printf.sprintf "bucket_upper %d" i) u (Hist.bucket_upper i))
    [ (0, 0); (1, 1); (2, 3); (3, 7); (10, 1023) ]

let test_hist_empty_and_singleton () =
  let h = Hist.create () in
  Alcotest.(check int) "empty n" 0 (Hist.n h);
  Alcotest.(check int) "empty percentile" 0 (Hist.percentile h 0.5);
  Hist.add h 5;
  Alcotest.(check int) "singleton n" 1 (Hist.n h);
  Alcotest.(check int) "singleton sum" 5 (Hist.sum h);
  Alcotest.(check (float 1e-9)) "singleton mean" 5.0 (Hist.mean h);
  Alcotest.(check int) "singleton min" 5 (Hist.min_value h);
  Alcotest.(check int) "singleton max" 5 (Hist.max_value h);
  (* bucket_of 5 = 3, interpolation lands on the [4,7] bucket top,
     clamped to the observed max *)
  Alcotest.(check int) "singleton p99 clamps to max" 5 (Hist.percentile h 0.99);
  Alcotest.(check (float 1e-9)) "singleton stddev" 0.0 (Hist.stddev h);
  Hist.clear h;
  Alcotest.(check int) "clear resets" 0 (Hist.n h)

let test_hist_percentiles () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 1; 2; 3; 100 ];
  Alcotest.(check int) "n" 4 (Hist.n h);
  Alcotest.(check int) "sum" 106 (Hist.sum h);
  (* cum counts: bucket1=1, bucket2=3, bucket7=4; p50 needs rank 2,
     which is the first of bucket [2,3]'s two samples: interpolation
     puts it halfway across the bucket, int-floored to 2 *)
  Alcotest.(check int) "p50 interpolates within its bucket" 2
    (Hist.percentile h 0.5);
  (* rank 3 is the bucket's last sample: the bucket top *)
  Alcotest.(check int) "p75 reaches the bucket top" 3 (Hist.percentile h 0.75);
  Alcotest.(check int) "p100 clamps to max" 100 (Hist.percentile h 1.0);
  let mean = 106.0 /. 4.0 in
  let var = ((1.0 +. 4.0 +. 9.0 +. 10000.0) /. 4.0) -. (mean *. mean) in
  Alcotest.(check (float 1e-9)) "stddev" (sqrt var) (Hist.stddev h)

let test_hist_merge () =
  (* merging two empties keeps the sentinels inert *)
  let a = Hist.create () in
  Hist.merge a (Hist.create ());
  Alcotest.(check int) "empty+empty n" 0 (Hist.n a);
  Alcotest.(check int) "empty+empty min" 0 (Hist.min_value a);
  Alcotest.(check int) "empty+empty max" 0 (Hist.max_value a);
  (* non-empty <- empty: nothing absorbed, especially not min/max *)
  Hist.add a 5;
  Hist.add a 100;
  Hist.merge a (Hist.create ());
  Alcotest.(check int) "after empty merge n" 2 (Hist.n a);
  Alcotest.(check int) "after empty merge sum" 105 (Hist.sum a);
  Alcotest.(check int) "after empty merge min" 5 (Hist.min_value a);
  Alcotest.(check int) "after empty merge max" 100 (Hist.max_value a);
  (* empty <- non-empty equals the source *)
  let c = Hist.create () in
  Hist.merge c a;
  Alcotest.(check bool) "empty <- non-empty copies" true (c = a);
  (* merge of disjoint halves equals histogramming the concatenation,
     including the top bucket (values past the last bucket boundary) *)
  let top = 1 lsl 60 in
  let d = Hist.create () and e = Hist.create () in
  List.iter (Hist.add d) [ 1; 2; 3 ];
  List.iter (Hist.add e) [ 100; top ];
  let m = Hist.create () in
  Hist.merge m d;
  Hist.merge m e;
  let direct = Hist.create () in
  List.iter (Hist.add direct) [ 1; 2; 3; 100; top ];
  Alcotest.(check bool) "merge = replay" true (m = direct);
  Alcotest.(check int) "merged n" 5 (Hist.n m);
  Alcotest.(check int) "merged max" top (Hist.max_value m);
  Alcotest.(check int) "merged p100" top (Hist.percentile m 1.0);
  (* bucket index saturates instead of wrapping for huge values *)
  Alcotest.(check int) "max_int stays in the last bucket"
    (Hist.bucket_of max_int)
    (Hist.bucket_of (max_int - 1))

let test_hist_log_linear () =
  (* k = 2: m = 4 sub-buckets per octave; values below 2m = 8 are exact *)
  let mode = Hist.Log_linear 2 in
  let h = Hist.create ~mode () in
  Alcotest.(check bool) "mode round-trips" true (Hist.mode h = mode);
  for v = 0 to 7 do
    let lo, hi = Hist.bounds_of_mode mode v in
    Alcotest.(check (pair int int))
      (Printf.sprintf "value %d is exact" v)
      (v, v) (lo, hi)
  done;
  (* octave [8,16) is cut into 4 sub-buckets of width 2 at indices 8..11 *)
  List.iter
    (fun (i, b) ->
      Alcotest.(check (pair int int))
        (Printf.sprintf "bounds of bucket %d" i)
        b
        (Hist.bounds_of_mode mode i))
    [ (8, (8, 9)); (9, (10, 11)); (11, (14, 15)); (12, (16, 19)) ];
  (* indexing is monotone and consistent with the bounds *)
  List.iter
    (fun v ->
      Hist.add h v;
      let i =
        match Hist.buckets_list h with [ (i, 1) ] -> i | _ -> assert false
      in
      let lo, hi = Hist.bounds_of_mode mode i in
      Alcotest.(check bool)
        (Printf.sprintf "value %d within its bucket [%d,%d]" v lo hi)
        true
        (lo <= v && v <= hi);
      Hist.clear h)
    [ 1; 7; 8; 9; 15; 16; 31; 32; 1_000; 1_000_000; 1 lsl 40; max_int ];
  (* relative resolution: bucket width <= lo / m for every octave *)
  List.iter
    (fun v ->
      Hist.add h v;
      let i =
        match Hist.buckets_list h with [ (i, 1) ] -> i | _ -> assert false
      in
      let lo, hi = Hist.bounds_of_mode mode i in
      Alcotest.(check bool)
        (Printf.sprintf "value %d bucket width bounds rel. error" v)
        true
        (hi - lo <= max 1 (lo / 4));
      Hist.clear h)
    [ 100; 10_000; 123_456_789; 1 lsl 50 ];
  (* mixed-mode merge is rejected: it cannot be exact *)
  Alcotest.check_raises "mixed-mode merge rejected"
    (Invalid_argument "Hist.merge: histograms use different bucketing modes")
    (fun () -> Hist.merge h (Hist.create ()))

(* merge of per-domain histograms must equal the histogram of the
   concatenated samples — counts, moments and every percentile — in
   both bucketing modes (the [Pool]/[Pardriver] determinism contract) *)
let prop_hist_merge_exact =
  let gen =
    QCheck.Gen.(
      triple
        (oneofl [ Hist.Log2; Hist.Log_linear 2; Hist.Log_linear 5 ])
        (list_size (int_range 0 40) (int_range (-5) 2_000_000))
        (list_size (int_range 0 40) (int_range (-5) 2_000_000)))
  in
  QCheck.Test.make ~count:500 ~name:"hist merge = hist of concatenation"
    (QCheck.make gen) (fun (mode, xs, ys) ->
      let a = Hist.create ~mode () and b = Hist.create ~mode () in
      List.iter (Hist.add a) xs;
      List.iter (Hist.add b) ys;
      let m = Hist.create ~mode () in
      Hist.merge m a;
      Hist.merge m b;
      let direct = Hist.create ~mode () in
      List.iter (Hist.add direct) (xs @ ys);
      Hist.buckets_list m = Hist.buckets_list direct
      && Hist.n m = Hist.n direct
      && Hist.sum m = Hist.sum direct
      && Hist.min_value m = Hist.min_value direct
      && Hist.max_value m = Hist.max_value direct
      && Float.abs (Hist.stddev m -. Hist.stddev direct) < 1e-6
      && List.for_all
           (fun p -> Hist.percentile m p = Hist.percentile direct p)
           [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ])

let test_hist_buckets_list () =
  let h = Hist.create () in
  Alcotest.(check (list (pair int int))) "empty buckets" [] (Hist.buckets_list h);
  List.iter (Hist.add h) [ 0; 1; 1; 5; 1_000_000 ];
  Alcotest.(check (list (pair int int)))
    "only occupied buckets, ascending"
    [ (0, 1); (1, 2); (3, 1); (20, 1) ]
    (Hist.buckets_list h);
  Alcotest.(check int) "counts sum to n" (Hist.n h)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.buckets_list h))

(* ---------- JSON-lines codec ---------- *)

let all_kinds =
  [
    E.Span_begin { span = 3; client = 1; server = 7; fn = "tsplit" };
    E.Span_end { span = 3; server = 7; ok = false };
    E.Crash { cid = 7; detector = "cmon:\"hang\"\n" };
    E.Reboot { cid = 7; epoch = 2; image_kb = 128; cost_ns = 13440 };
    E.Divert { cid = 7; victim = 4 };
    E.Upcall { cid = 7; fn = "w_recover\tlocal" };
    E.Reflect { cid = 7; fn = "sched_blk" };
    E.Walk_begin
      { client = 1; server = 7; iface = "fs"; desc = 42; reason = E.Demand };
    E.Walk_end { client = 1; server = 7; ok = true };
    E.Recover_begin { client = 1; server = 7; iface = "fs" };
    E.Recover_end { client = 1; server = 7 };
    E.Storage_op { op = "put_slice"; space = "fs"; id = 366080704 };
    E.Inject { cid = 7; fn = "fs\\read"; reg = "r11"; bit = 31; outcome = "hang" };
    E.Http { cid = 9; path = "/index.html?q=\x01"; status = 404 };
    E.Http_req
      {
        cid = 9;
        client = 712_554;
        arrival_ns = 1_000;
        start_ns = 1_250;
        finish_ns = 63_400;
        status = 200;
        outcome = "ok";
      };
    E.Note { name = "marker"; data = "a\"b\\c\r\nd" };
  ]

let test_jsonl_roundtrip () =
  List.iteri
    (fun i kind ->
      let e = { E.seq = i; at_ns = 17 * i; tid = i mod 3; kind } in
      let line = Jsonl.to_string e in
      Alcotest.(check bool)
        (Printf.sprintf "%s is one line" (E.kind_name kind))
        false
        (String.contains line '\n');
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" (E.kind_name kind))
        true
        (Jsonl.of_string line = e))
    all_kinds

let test_jsonl_dump_load () =
  let events = stream (List.map (fun k -> (5, 2, k)) all_kinds) in
  let path = Filename.temp_file "sgobs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      Jsonl.dump oc events;
      close_out oc;
      let ic = open_in path in
      let back = Jsonl.load ic in
      close_in ic;
      Alcotest.(check bool) "dump/load round-trips" true (back = events))

let test_jsonl_rejects_garbage () =
  List.iter
    (fun line ->
      let rejected =
        match Jsonl.of_string line with
        | exception Sg_util.Json.Parse_error _ -> true
        | _ -> false
      in
      Alcotest.(check bool) (Printf.sprintf "rejects %S" line) true rejected)
    [
      "";
      "not json";
      "{\"seq\":0}";
      "{\"seq\":0,\"at_ns\":0,\"tid\":0,\"kind\":\"no_such_kind\"}";
      "{\"seq\":0,\"at_ns\":0,\"tid\":0,\"kind\":\"crash\",\"cid\":1";
      "{\"seq\":0,\"at_ns\":0,\"tid\":0,\"kind\":\"crash\",\"detector\":\"x\"}";
      (* malformed and out-of-range integers are parse errors too *)
      "{\"seq\":-,\"at_ns\":0,\"tid\":0,\"kind\":\"note\",\"name\":\"a\",\"data\":\"b\"}";
      "{\"seq\":123456789012345678901234567890,\"at_ns\":0,\"tid\":0,\"kind\":\"note\",\"name\":\"a\",\"data\":\"b\"}";
    ]

(* ---------- checker: one pass + one rejection per rule ---------- *)

let crash cid = E.Crash { cid; detector = "t" }
let reboot cid = E.Reboot { cid; epoch = 1; image_kb = 64; cost_ns = 5 }
let s_end ?(server = 7) span ok = E.Span_end { span; server; ok }

let test_check_clean_stream () =
  check_rules "fault-free invoke stream" []
    [
      (0, 1, span_begin ~span:1);
      (5, 1, s_end 1 true);
      (9, 1, crash 7);
      (12, 1, reboot 7);
      (20, 1, span_begin ~span:2);
      (25, 1, s_end 2 true);
    ]

let test_check_reordered_reboot () =
  (* the corrupted stream of the acceptance criterion: the reboot record
     displaced past a successful invocation of the still-failed server *)
  check_rules "reordered reboot is rejected" [ "no-success-while-failed" ]
    [
      (0, 1, crash 7);
      (5, 1, span_begin ~span:1);
      (9, 1, s_end 1 true);
      (12, 1, reboot 7);
    ]

let test_check_alternation () =
  check_rules "reboot without crash" [ "crash-reboot-alternation" ]
    [ (0, 1, reboot 7) ];
  check_rules "double crash without reboot" [ "crash-reboot-alternation" ]
    [ (0, 1, crash 7); (5, 1, crash 7); (9, 1, reboot 7) ];
  check_rules "crash/reboot pairs alternate cleanly" []
    [ (0, 1, crash 7); (5, 1, reboot 7); (9, 1, crash 7); (12, 1, reboot 7) ]

let test_check_monotone () =
  let bad =
    [
      { E.seq = 0; at_ns = 50; tid = 1; kind = E.Note { name = "a"; data = "" } };
      { E.seq = 2; at_ns = 40; tid = 1; kind = E.Note { name = "b"; data = "" } };
      { E.seq = 1; at_ns = 60; tid = 1; kind = E.Note { name = "c"; data = "" } };
    ]
  in
  Alcotest.(check (list string))
    "time and seq regressions are both caught" [ "monotone-time" ]
    (rules (Check.run ~completed:true bad))

let test_check_span_nesting () =
  check_rules "end without begin" [ "span-nesting" ] [ (0, 1, s_end 9 true) ];
  check_rules "cross-thread end" [ "span-nesting" ]
    [ (0, 1, span_begin ~span:1); (5, 2, s_end 1 true) ];
  check_rules "non-LIFO ends" [ "span-nesting" ]
    [
      (0, 1, span_begin ~span:1);
      (2, 1, span_begin ~span:2);
      (4, 1, s_end 1 true);
      (6, 1, s_end 2 true);
    ];
  check_rules "properly nested spans pass" []
    [
      (0, 1, span_begin ~span:1);
      (2, 1, span_begin ~span:2);
      (4, 1, s_end 2 true);
      (6, 1, s_end 1 true);
    ]

let divert victim = E.Divert { cid = 7; victim }

let test_check_divert_unwind () =
  (* thread 2 is inside server 7 when it reboots; it must unwind the
     diverted span (faulted) before invoking anything again *)
  let prefix =
    [
      (0, 2, span_begin ~span:1);
      (3, 1, crash 7);
      (5, 1, reboot 7);
      (5, 1, divert 2);
    ]
  in
  check_rules "unwind then replay passes" []
    (prefix @ [ (8, 2, s_end 1 false); (10, 2, span_begin ~span:2); (12, 2, s_end 2 true) ]);
  check_rules "diverted span completing ok is rejected" [ "divert-unwind" ]
    (prefix @ [ (8, 2, s_end 1 true) ]);
  check_rules "replay before the unwind is rejected"
    [ "divert-unwind"; "end-of-stream" ]
    (prefix @ [ (8, 2, span_begin ~span:2); (10, 2, s_end 2 true) ])

let walk ?(reason = E.Demand) () =
  E.Walk_begin { client = 1; server = 7; iface = "fs"; desc = 3; reason }

let walk_end ok = E.Walk_end { client = 1; server = 7; ok }
let rec_begin = E.Recover_begin { client = 1; server = 7; iface = "fs" }
let rec_end = E.Recover_end { client = 1; server = 7 }

let test_check_walk_discipline () =
  check_rules "demand walk outside an episode passes" []
    [ (0, 1, walk ()); (5, 1, walk_end true) ];
  check_rules "interrupted walk restarting passes" []
    [ (0, 1, walk ()); (4, 1, walk_end false); (6, 1, walk ()); (9, 1, walk_end true) ];
  check_rules "eager walk outside an episode is rejected" [ "walk-discipline" ]
    [ (0, 1, walk ~reason:E.Eager ()); (5, 1, walk_end true) ];
  check_rules "demand walk inside an episode is rejected" [ "walk-discipline" ]
    [ (0, 1, rec_begin); (2, 1, walk ()); (5, 1, walk_end true); (7, 1, rec_end) ];
  check_rules "eager episode passes unmoded" []
    [ (0, 1, rec_begin); (2, 1, walk ~reason:E.Eager ()); (5, 1, walk_end true); (7, 1, rec_end) ];
  check_rules ~mode:`Ondemand "T1 mode bans eager episodes" [ "walk-discipline" ]
    [ (0, 1, rec_begin); (2, 1, rec_end) ];
  check_rules "episode end without begin" [ "walk-discipline" ] [ (0, 1, rec_end) ];
  check_rules "mismatched walk end" [ "walk-discipline" ]
    [ (0, 1, walk ()); (5, 1, E.Walk_end { client = 1; server = 8; ok = true }) ]

let inject outcome = E.Inject { cid = 7; fn = "fs_read"; reg = "r4"; bit = 3; outcome }

let test_check_inject_accounting () =
  check_rules "failstop followed by its crash passes" []
    [
      (0, 1, span_begin ~span:1);
      (2, 1, inject "failstop");
      (4, 1, crash 7);
      (6, 1, s_end 1 false);
      (8, 1, reboot 7);
    ];
  check_rules "segfault unwinding the span passes" []
    [ (0, 1, span_begin ~span:1); (2, 1, inject "segfault"); (4, 1, s_end 1 false) ];
  check_rules "undetected needs no detection record" []
    [ (0, 1, span_begin ~span:1); (2, 1, inject "undetected"); (4, 1, s_end 1 true) ];
  check_rules "failstop followed by a clean return is rejected"
    [ "inject-accounting" ]
    [ (0, 1, span_begin ~span:1); (2, 1, inject "failstop"); (4, 1, s_end 1 true) ];
  check_rules "unknown outcome is rejected" [ "inject-accounting" ]
    [ (0, 1, inject "meltdown") ];
  check_rules "activation at end of stream is rejected" [ "end-of-stream" ]
    [ (0, 1, inject "failstop") ]

let test_check_end_of_stream () =
  let open_span = [ (0, 1, span_begin ~span:1) ] in
  check_rules "open span at EOF rejected when completed" [ "end-of-stream" ]
    open_span;
  check_rules ~completed:false "open span tolerated on a prefix" [] open_span;
  check_rules "open walk at EOF rejected" [ "end-of-stream" ] [ (0, 1, walk ()) ];
  check_rules "open episode at EOF rejected" [ "end-of-stream" ]
    [ (0, 1, rec_begin) ]

(* ---------- metrics fold ---------- *)

let test_metrics_fold () =
  let m = Metrics.create () in
  List.iter (Metrics.feed m)
    (stream
       [
         (0, 1, span_begin ~span:1);
         (10, 1, s_end 1 true);
         (12, 1, crash 7);
         (20, 1, reboot 7);
         (21, 1, divert 2);
         (22, 1, E.Upcall { cid = 7; fn = "w_recover" });
         (24, 1, walk ());
         (30, 1, walk_end true);
         (32, 1, E.Storage_op { op = "slices"; space = "fs"; id = 1 });
         (40, 1, span_begin ~span:2);
         (45, 1, s_end 2 false);
         (50, 1, span_begin ~span:3);
         (60, 1, s_end 3 true);
         (61, 1, inject "hang");
         (62, 1, E.Http { cid = 9; path = "/"; status = 200 });
         (63, 1, E.Http { cid = 9; path = "/nope"; status = 404 });
         ( 64,
           1,
           E.Perturb
             { iface = "fs"; fn = "twrite"; action = "corrupt:data";
               in_walk = false } );
         ( 65,
           1,
           E.Perturb
             { iface = "fs"; fn = "tsplit"; action = "corrupt:name";
               in_walk = true } );
       ]);
  Alcotest.(check int) "invocations" 3 (Metrics.invocations m);
  Alcotest.(check int) "invocations into 7" 3 (Metrics.invocations ~cid:7 m);
  Alcotest.(check int) "invocations into 8" 0 (Metrics.invocations ~cid:8 m);
  Alcotest.(check int) "spans ok" 2 (Metrics.spans_ok m);
  Alcotest.(check int) "spans faulted" 1 (Metrics.spans_fault m);
  Alcotest.(check int) "crashes of 7" 1 (Metrics.crashes ~cid:7 m);
  Alcotest.(check int) "reboots" 1 (Metrics.reboots m);
  Alcotest.(check int) "reboot cost total" 5 (Metrics.reboot_ns_total m);
  Alcotest.(check int) "diverts" 1 (Metrics.diverts m);
  Alcotest.(check int) "upcalls" 1 (Metrics.upcalls m);
  Alcotest.(check int) "walks by client" 1 (Metrics.walks ~client:1 m);
  Alcotest.(check int) "walks by server" 1 (Metrics.walks ~server:7 m);
  Alcotest.(check int) "storage ops" 1 (Metrics.storage_ops m);
  Alcotest.(check int) "injections" 1 (Metrics.injections m);
  Alcotest.(check int) "hang outcomes" 1 (Metrics.outcome_count m "hang");
  Alcotest.(check int) "http requests" 2 (Metrics.http_requests m);
  Alcotest.(check int) "http errors" 1 (Metrics.http_errors m);
  Alcotest.(check int) "perturbations" 2 (Metrics.perturbs m);
  Alcotest.(check int) "in-walk perturbations" 1 (Metrics.perturbs_in_walk m);
  (let summary = Format.asprintf "%a" Metrics.pp_summary m in
   let has needle =
     let nl = String.length needle and sl = String.length summary in
     let rec go i = i + nl <= sl && (String.sub summary i nl = needle || go (i + 1)) in
     go 0
   in
   Alcotest.(check bool)
     "summary counts walk-time perturbations" true
     (has "perturbations      2 (1 during walks)"));
  Alcotest.(check int) "span latencies recorded" 2 (Hist.n (Metrics.span_hist m));
  Alcotest.(check int) "walk latency 6 ns" 6 (Hist.sum (Metrics.walk_hist m));
  (* the first ok span end after the reboot: 60 - 20 = 40 ns... except
     span 1 ended before the reboot, so the first is span 3 at 60 ns *)
  Alcotest.(check int) "first-access latency" 40
    (Hist.sum (Metrics.first_access_hist m));
  Alcotest.check_raises "walks rejects both filters"
    (Invalid_argument "Metrics.walks: give client or server, not both")
    (fun () -> ignore (Metrics.walks ~client:1 ~server:7 m))

let wbegin client server =
  E.Walk_begin { client; server; iface = "fs"; desc = 1; reason = E.Demand }

let wend ?(ok = true) client server = E.Walk_end { client; server; ok }

let test_metrics_walk_pairing () =
  (* two walks of different client/server pairs overlapping on one
     thread: ends must pair with their own begins. A blind LIFO pop
     would cross them and record durations {20, 40}; correct pairing
     records {30, 30}. *)
  let m = Metrics.create () in
  List.iter (Metrics.feed m)
    (stream
       [
         (0, 1, wbegin 1 7);
         (10, 1, wbegin 2 8);
         (30, 1, wend 1 7);
         (40, 1, wend 2 8);
       ]);
  Alcotest.(check int) "both walks recorded" 2 (Hist.n (Metrics.walk_hist m));
  Alcotest.(check int) "durations not crossed (max)" 30
    (Hist.max_value (Metrics.walk_hist m));
  Alcotest.(check int) "durations not crossed (min)" 30
    (Hist.min_value (Metrics.walk_hist m))

let test_metrics_walk_interrupted () =
  (* an interrupted walk pops its begin without recording, and must not
     shift the pairing of the retry or of an enclosing walk *)
  let m = Metrics.create () in
  List.iter (Metrics.feed m)
    (stream
       [
         (0, 1, wbegin 3 9);
         (* outer walk, still open *)
         (2, 1, wbegin 1 7);
         (5, 1, wend ~ok:false 1 7);
         (* interrupted: no sample *)
         (6, 1, wbegin 1 7);
         (9, 1, wend 1 7);
         (* retry: 3 ns *)
         (20, 1, wend 3 9);
         (* outer: 20 ns *)
       ]);
  Alcotest.(check int) "interrupted walk drops its sample" 2
    (Hist.n (Metrics.walk_hist m));
  Alcotest.(check int) "retry measured from its own begin" 3
    (Hist.min_value (Metrics.walk_hist m));
  Alcotest.(check int) "outer walk unaffected" 20
    (Hist.max_value (Metrics.walk_hist m));
  (* an end with no matching open walk is ignored *)
  let m2 = Metrics.create () in
  List.iter (Metrics.feed m2) (stream [ (5, 1, wend 4 4) ]);
  Alcotest.(check int) "unmatched end ignored" 0 (Hist.n (Metrics.walk_hist m2))

(* ---------- JSON-lines round-trip property ---------- *)

(* strings exercising quotes, backslashes, newlines and control bytes *)
let gen_str =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 12))

let gen_reason = QCheck.Gen.oneofl [ E.Demand; E.Eager; E.Dep; E.Upcall_driven ]

let gen_kind =
  let open QCheck.Gen in
  let i = small_nat in
  oneof
    [
      map
        (fun (span, client, server, fn) -> E.Span_begin { span; client; server; fn })
        (quad i i i gen_str);
      map
        (fun (span, server, ok) -> E.Span_end { span; server; ok })
        (triple i i bool);
      map (fun (cid, detector) -> E.Crash { cid; detector }) (pair i gen_str);
      map
        (fun (cid, epoch, image_kb, cost_ns) ->
          E.Reboot { cid; epoch; image_kb; cost_ns })
        (quad i i i i);
      map (fun (cid, victim) -> E.Divert { cid; victim }) (pair i i);
      map (fun (cid, fn) -> E.Upcall { cid; fn }) (pair i gen_str);
      map (fun (cid, fn) -> E.Reflect { cid; fn }) (pair i gen_str);
      map
        (fun (client, server, (iface, desc, reason)) ->
          E.Walk_begin { client; server; iface; desc; reason })
        (triple i i (triple gen_str i gen_reason));
      map
        (fun (client, server, ok) -> E.Walk_end { client; server; ok })
        (triple i i bool);
      map
        (fun (client, server, iface) -> E.Recover_begin { client; server; iface })
        (triple i i gen_str);
      map (fun (client, server) -> E.Recover_end { client; server }) (pair i i);
      map
        (fun (op, space, id) -> E.Storage_op { op; space; id })
        (triple gen_str gen_str i);
      map
        (fun (cid, fn, (reg, bit, outcome)) -> E.Inject { cid; fn; reg; bit; outcome })
        (triple i gen_str (triple gen_str i gen_str));
      map
        (fun (cid, path, status) -> E.Http { cid; path; status })
        (triple i gen_str i);
      map
        (fun ((cid, client, arrival_ns), (start_ns, finish_ns, status), outcome)
           ->
          E.Http_req
            { cid; client; arrival_ns; start_ns; finish_ns; status; outcome })
        (triple (triple i i i) (triple i i i) gen_str);
      map
        (fun (iface, fn, (action, in_walk)) ->
          E.Perturb { iface; fn; action; in_walk })
        (triple gen_str gen_str (pair gen_str bool));
      map (fun (name, data) -> E.Note { name; data }) (pair gen_str gen_str);
    ]

let gen_event =
  QCheck.Gen.(
    map
      (fun (seq, at_ns, tid, kind) -> { E.seq; at_ns; tid; kind })
      (quad small_nat small_nat small_nat gen_kind))

let prop_jsonl_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"jsonl round-trip is identity"
    (QCheck.make ~print:(Format.asprintf "%a" E.pp) gen_event)
    (fun e ->
      let line = Jsonl.to_string e in
      (not (String.contains line '\n')) && Jsonl.of_string line = e)

(* every constructor must actually be emitted by the generator *)
let prop_jsonl_covers_all_kinds () =
  let seen = Hashtbl.create 16 in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 3000 do
    Hashtbl.replace seen (E.kind_name (gen_kind st)) ()
  done;
  Alcotest.(check int) "all 17 constructors generated" 17 (Hashtbl.length seen)

(* ---------- episode stitching & profiling ---------- *)

(* a hand-written single-fault recovery: inject -> crash (unwinding the
   in-flight span) -> reboot [6,16] -> divert -> demand walk wrapping a
   replay span whose success ends the episode at 25 ns *)
let episode_stream =
  stream
    [
      (0, 1, E.Span_begin { span = 1; client = 2; server = 7; fn = "tread" });
      (2, 1, E.Inject { cid = 7; fn = "f"; reg = "EAX"; bit = 3; outcome = "failstop" });
      (5, 1, E.Crash { cid = 7; detector = "assert" });
      (5, 1, E.Span_end { span = 1; server = 7; ok = false });
      (6, 1, E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 10 });
      (16, 1, E.Divert { cid = 7; victim = 2 });
      (20, 2, E.Walk_begin { client = 2; server = 7; iface = "fs"; desc = 9; reason = E.Demand });
      (22, 2, E.Span_begin { span = 5; client = 2; server = 7; fn = "tsplit" });
      (25, 2, E.Span_end { span = 5; server = 7; ok = true });
      (26, 2, E.Walk_end { client = 2; server = 7; ok = true });
    ]

let test_episode_stitching () =
  match Episode.of_events episode_stream with
  | [ ep ] ->
      Alcotest.(check int) "crashed component" 7 ep.Episode.ep_cid;
      Alcotest.(check int) "detected at crash" 5 ep.Episode.ep_detect_ns;
      Alcotest.(check bool) "complete" true ep.Episode.ep_complete;
      Alcotest.(check int) "ends at first successful access" 25
        ep.Episode.ep_end_ns;
      Alcotest.(check int) "span" 20 (Episode.span_ns ep);
      (match ep.Episode.ep_trigger with
      | Some tr ->
          Alcotest.(check string) "trigger fn" "f" tr.Episode.tr_fn;
          Alcotest.(check string) "trigger outcome" "failstop"
            tr.Episode.tr_outcome
      | None -> Alcotest.fail "missing trigger");
      Alcotest.(check int) "five nodes" 5 (List.length ep.Episode.ep_nodes);
      (* pre-crash span 1 must not appear; walk open at completion is
         truncated to the episode end *)
      List.iter
        (fun n ->
          match n.Episode.n_kind with
          | Episode.N_span { span; _ } ->
              Alcotest.(check int) "only the replay span attached" 5 span
          | Episode.N_walk { ok; _ } ->
              (* its Walk_end arrived after the close: truncated, which
                 is distinct from completed *)
              Alcotest.(check bool) "truncated walk is not marked ok" false ok;
              Alcotest.(check int) "walk truncated to episode end" 25
                n.Episode.n_end_ns
          | _ -> ())
        ep.Episode.ep_nodes
  | eps -> Alcotest.failf "expected 1 episode, got %d" (List.length eps)

let test_episode_incomplete () =
  (* a chunk boundary abandons the in-flight episode as incomplete *)
  let events =
    stream
      [
        (5, 1, E.Crash { cid = 7; detector = "assert" });
        (6, 1, E.Reboot { cid = 7; epoch = 1; image_kb = 64; cost_ns = 10 });
        (20, -1, E.Note { name = "sys-reboot"; data = "chunk" });
        (25, 1, E.Crash { cid = 3; detector = "pagefault" });
      ]
  in
  match Episode.of_events events with
  | [ a; b ] ->
      Alcotest.(check bool) "first sealed incomplete" false a.Episode.ep_complete;
      Alcotest.(check int) "first ends at its last activity" 16
        a.Episode.ep_end_ns;
      Alcotest.(check int) "second opened after the boundary" 3
        b.Episode.ep_cid;
      Alcotest.(check bool) "second incomplete at EOF" false
        b.Episode.ep_complete
  | eps -> Alcotest.failf "expected 2 episodes, got %d" (List.length eps)

let test_profile_phases_and_critical_path () =
  let ep = List.hd (Episode.of_events episode_stream) in
  let p = Profile.phases ep in
  Alcotest.(check int) "detect->reboot" 11 p.Profile.ph_detect_reboot_ns;
  Alcotest.(check int) "reboot->walks" 4 p.Profile.ph_reboot_walks_ns;
  Alcotest.(check int) "walks->access" 5 p.Profile.ph_walks_access_ns;
  Alcotest.(check int) "phases sum to the episode span" (Episode.span_ns ep)
    (Profile.phases_total p);
  let cp = Profile.critical_path ep in
  Alcotest.(check (list string))
    "critical path detect -> reboot -> walk -> span"
    [ "detect"; "reboot"; "walk"; "span" ]
    (List.map
       (fun n ->
         match n.Episode.n_kind with
         | Episode.N_detect _ -> "detect"
         | Episode.N_reboot _ -> "reboot"
         | Episode.N_walk _ -> "walk"
         | Episode.N_span _ -> "span"
         | _ -> "other")
       cp);
  (* reboot 10 + walk (20..25 truncated) 5 + replay span 3 *)
  Alcotest.(check int) "critical path length" 18 (Profile.critical_path_ns ep)

let test_profile_attribution () =
  let eps = Episode.of_events episode_stream in
  let attrs = Profile.attribution eps in
  let find cid = List.find (fun a -> a.Profile.at_cid = cid) attrs in
  let server = find 7 and client = find 2 in
  Alcotest.(check int) "reboot cost charged to the crashed cid" 10
    server.Profile.at_reboot_ns;
  Alcotest.(check int) "crash counted on the crashed cid" 1
    server.Profile.at_crashes;
  Alcotest.(check int) "walk time charged to the walking client" 5
    client.Profile.at_walk_ns;
  Alcotest.(check int) "replay span charged to its client" 3
    client.Profile.at_span_ns;
  Alcotest.(check int) "sorted by total descending" 7
    (List.hd attrs).Profile.at_cid;
  (* rendering smoke: both reporters run without raising, and the JSON
     profile carries its version *)
  let text = Format.asprintf "%a" Profile.pp eps in
  Alcotest.(check bool) "text report mentions the phases" true
    (String.length text > 0);
  let json = Profile.to_json ~source:"test" eps in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json carries version 1" true
    (contains "\"version\":1" json);
  Alcotest.(check bool) "json carries the attribution" true
    (contains "\"attribution\"" json)

(* ---------- request/episode join ---------- *)

(* the canned single-crash episode of [episode_stream] (detect=5,
   end=25) with request spans on every side of it *)
let test_reqjoin_attribution () =
  let req ~client ~arrival ~start ~finish ~status ~outcome =
    E.Http_req
      {
        cid = 40;
        client;
        arrival_ns = arrival;
        start_ns = start;
        finish_ns = finish;
        status;
        outcome;
      }
  in
  let events =
    stream
      ((0, 3, req ~client:100 ~arrival:0 ~start:0 ~finish:3 ~status:200 ~outcome:"ok")
       :: (2, 3, req ~client:101 ~arrival:2 ~start:2 ~finish:10 ~status:200 ~outcome:"ok")
       :: (6, 3, req ~client:102 ~arrival:6 ~start:8 ~finish:24 ~status:200 ~outcome:"ok")
       :: (7, 3, req ~client:103 ~arrival:7 ~start:7 ~finish:7 ~status:503 ~outcome:"dropped")
       :: (30, 3, req ~client:104 ~arrival:30 ~start:30 ~finish:40 ~status:200 ~outcome:"ok")
      :: List.map (fun e -> (e.E.at_ns, e.E.tid, e.E.kind)) episode_stream)
  in
  let t = Reqjoin.of_events events in
  Alcotest.(check int) "offered" 5 t.Reqjoin.tj_offered;
  Alcotest.(check int) "served" 4 t.Reqjoin.tj_served;
  Alcotest.(check int) "dropped" 1 t.Reqjoin.tj_dropped;
  Alcotest.(check int) "no errors or failures" 0
    (t.Reqjoin.tj_errors + t.Reqjoin.tj_failed);
  Alcotest.(check int) "window spans first arrival to last finish" 40
    t.Reqjoin.tj_window_ns;
  (* [0,3] precedes and [30,40] follows the [5,25] episode window;
     [2,10], [6,24] and the instantaneous drop at 7 overlap it *)
  Alcotest.(check int) "clean population" 2 (Hist.n t.Reqjoin.tj_clean);
  Alcotest.(check int) "shadowed population" 3 (Hist.n t.Reqjoin.tj_shadowed);
  match t.Reqjoin.tj_episodes with
  | [ e ] ->
      Alcotest.(check int) "crashed component" 7 e.Reqjoin.ei_cid;
      Alcotest.(check int) "detect" 5 e.Reqjoin.ei_detect_ns;
      Alcotest.(check int) "end" 25 e.Reqjoin.ei_end_ns;
      Alcotest.(check bool) "complete" true e.Reqjoin.ei_complete;
      Alcotest.(check int) "three shadowed requests" 3 e.Reqjoin.ei_requests;
      (* sojourns 8, 18 and 0: exact sub-64 buckets in log-linear mode *)
      Alcotest.(check int) "episode p99" 18 e.Reqjoin.ei_p99_ns;
      Alcotest.(check int) "episode max" 18 e.Reqjoin.ei_max_ns;
      Alcotest.(check (float 0.01)) "episode mean" (26.0 /. 3.0)
        e.Reqjoin.ei_mean_ns
  | eps -> Alcotest.failf "expected 1 episode impact, got %d" (List.length eps)

let test_reqjoin_json () =
  let t = Reqjoin.of_events episode_stream in
  (* no requests: counts are zero but the report still renders *)
  let json = Reqjoin.to_json t in
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "offered zero" true (contains "\"offered\":0" json);
  Alcotest.(check bool) "episode row present" true
    (contains "\"episodes_total\":1" json);
  Alcotest.(check int) "version" 1 Reqjoin.json_version

let () =
  Alcotest.run "obs"
    [
      ( "sink",
        [
          Alcotest.test_case "retention policies" `Quick test_sink_retention;
          Alcotest.test_case "bounded recovery ring" `Quick test_sink_ring;
          Alcotest.test_case "ring at exactly capacity" `Quick
            test_sink_ring_exact_capacity;
          Alcotest.test_case "subscribe/subscribe_fold equivalence" `Quick
            test_subscribe_fold_equivalence;
        ] );
      ( "hist",
        [
          Alcotest.test_case "bucket math" `Quick test_hist_buckets;
          Alcotest.test_case "empty and singleton" `Quick
            test_hist_empty_and_singleton;
          Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
          Alcotest.test_case "merge" `Quick test_hist_merge;
          Alcotest.test_case "buckets_list" `Quick test_hist_buckets_list;
          Alcotest.test_case "log-linear mode" `Quick test_hist_log_linear;
          QCheck_alcotest.to_alcotest prop_hist_merge_exact;
        ] );
      ( "jsonl",
        [
          Alcotest.test_case "every kind round-trips" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "dump/load" `Quick test_jsonl_dump_load;
          Alcotest.test_case "rejects malformed lines" `Quick
            test_jsonl_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
          Alcotest.test_case "generator covers all 17 kinds" `Quick
            prop_jsonl_covers_all_kinds;
        ] );
      ( "check",
        [
          Alcotest.test_case "clean stream" `Quick test_check_clean_stream;
          Alcotest.test_case "reordered reboot rejected" `Quick
            test_check_reordered_reboot;
          Alcotest.test_case "crash-reboot alternation" `Quick
            test_check_alternation;
          Alcotest.test_case "monotone time" `Quick test_check_monotone;
          Alcotest.test_case "span nesting" `Quick test_check_span_nesting;
          Alcotest.test_case "divert unwind" `Quick test_check_divert_unwind;
          Alcotest.test_case "walk discipline" `Quick test_check_walk_discipline;
          Alcotest.test_case "inject accounting" `Quick
            test_check_inject_accounting;
          Alcotest.test_case "end of stream" `Quick test_check_end_of_stream;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter fold" `Quick test_metrics_fold;
          Alcotest.test_case "overlapping walk pairing" `Quick
            test_metrics_walk_pairing;
          Alcotest.test_case "interrupted walk pairing" `Quick
            test_metrics_walk_interrupted;
        ] );
      ( "episode",
        [
          Alcotest.test_case "stitches a recovery episode" `Quick
            test_episode_stitching;
          Alcotest.test_case "chunk boundary seals incomplete" `Quick
            test_episode_incomplete;
        ] );
      ( "profile",
        [
          Alcotest.test_case "phases and critical path" `Quick
            test_profile_phases_and_critical_path;
          Alcotest.test_case "attribution and reporting" `Quick
            test_profile_attribution;
        ] );
      ( "reqjoin",
        [
          Alcotest.test_case "tail attribution on a canned trace" `Quick
            test_reqjoin_attribution;
          Alcotest.test_case "empty-request report renders" `Quick
            test_reqjoin_json;
        ] );
    ]
