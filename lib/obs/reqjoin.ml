(* Request/episode join: attribute open-loop request latencies to the
   recovery episodes they overlapped.

   A request is *fault-shadowed* when its sojourn window
   [arrival, finish] intersects some episode's [detect, end] window —
   its latency may include reboot stalls, descriptor walks or queueing
   behind either. Everything else is the *clean* population: the
   baseline the shadowed tail is judged against. The same pass derives
   offered-vs-served throughput and a queue-depth profile (requests
   arrived but not yet started) from the timestamps alone, so a replayed
   JSON-lines stream yields the identical report. *)

module E = Episode

type req = {
  rq_client : int;
  rq_arrival_ns : int;
  rq_start_ns : int;
  rq_finish_ns : int;
  rq_status : int;
  rq_outcome : string;
}

let req_of_kind = function
  | Event.Http_req { client; arrival_ns; start_ns; finish_ns; status; outcome; _ }
    ->
      Some
        {
          rq_client = client;
          rq_arrival_ns = arrival_ns;
          rq_start_ns = start_ns;
          rq_finish_ns = finish_ns;
          rq_status = status;
          rq_outcome = outcome;
        }
  | _ -> None

let latency_ns r = r.rq_finish_ns - r.rq_arrival_ns

type episode_impact = {
  ei_cid : int;
  ei_detect_ns : int;
  ei_end_ns : int;
  ei_complete : bool;
  ei_requests : int;
  ei_p99_ns : int;
  ei_max_ns : int;
  ei_mean_ns : float;
}

type t = {
  tj_offered : int;
  tj_served : int;
  tj_errors : int;
  tj_dropped : int;
  tj_failed : int;
  tj_first_arrival_ns : int;
  tj_window_ns : int;
  tj_all : Hist.t;
  tj_clean : Hist.t;
  tj_shadowed : Hist.t;
  tj_queue_depth : Hist.t;
  tj_queue_max : int;
  tj_episodes : episode_impact list;
}

(* 2^5 = 32 sub-buckets per octave: ~3% relative resolution, so p999
   resolves far finer than the 2x steps of the default Log2 layout *)
let hist_mode = Hist.Log_linear 5

let queue_depth_profile reqs =
  (* sweep arrival (+1) and start (-1) instants in time order; each
     arrival samples the backlog including itself. Arrivals sort before
     starts at equal timestamps so an immediately-served request still
     samples depth 1; the uid makes the order total, hence the profile
     deterministic for any input permutation. *)
  let hist = Hist.create ~mode:hist_mode () in
  let events =
    List.concat
      (List.mapi
         (fun uid r ->
           if r.rq_outcome = "dropped" then
             [ (r.rq_arrival_ns, 0, uid, `Sample) ]
           else
             [
               (r.rq_arrival_ns, 0, uid, `Arrive);
               (r.rq_start_ns, 1, uid, `Start);
             ])
         reqs)
  in
  let events =
    List.sort
      (fun (t0, k0, u0, _) (t1, k1, u1, _) -> compare (t0, k0, u0) (t1, k1, u1))
      events
  in
  let depth = ref 0 in
  let max_d = ref 0 in
  List.iter
    (fun (_, _, _, ev) ->
      match ev with
      | `Arrive ->
          incr depth;
          if !depth > !max_d then max_d := !depth;
          Hist.add hist !depth
      | `Sample -> Hist.add hist (max 1 (!depth + 1))
      | `Start -> decr depth)
    events;
  (hist, !max_d)

let join ?(episodes = []) reqs =
  let eps =
    List.sort (fun a b -> compare a.E.ep_detect_ns b.E.ep_detect_ns) episodes
    |> Array.of_list
  in
  let per_ep = Array.map (fun _ -> Hist.create ~mode:hist_mode ()) eps in
  let all = Hist.create ~mode:hist_mode () in
  let clean = Hist.create ~mode:hist_mode () in
  let shadowed = Hist.create ~mode:hist_mode () in
  let served = ref 0
  and errors = ref 0
  and dropped = ref 0
  and failed = ref 0 in
  let first_arrival = ref max_int and last_finish = ref min_int in
  List.iter
    (fun r ->
      (match r.rq_outcome with
      | "ok" -> incr served
      | "error" -> incr errors
      | "dropped" -> incr dropped
      | _ -> incr failed);
      if r.rq_arrival_ns < !first_arrival then first_arrival := r.rq_arrival_ns;
      if r.rq_finish_ns > !last_finish then last_finish := r.rq_finish_ns;
      let lat = latency_ns r in
      Hist.add all lat;
      let hit = ref false in
      (* episodes are detect-sorted: stop once detection is past finish *)
      let i = ref 0 in
      while !i < Array.length eps && eps.(!i).E.ep_detect_ns <= r.rq_finish_ns do
        if eps.(!i).E.ep_end_ns >= r.rq_arrival_ns then begin
          hit := true;
          Hist.add per_ep.(!i) lat
        end;
        incr i
      done;
      Hist.add (if !hit then shadowed else clean) lat)
    reqs;
  let impacts =
    Array.to_list
      (Array.mapi
         (fun i ep ->
           let h = per_ep.(i) in
           {
             ei_cid = ep.E.ep_cid;
             ei_detect_ns = ep.E.ep_detect_ns;
             ei_end_ns = ep.E.ep_end_ns;
             ei_complete = ep.E.ep_complete;
             ei_requests = Hist.n h;
             ei_p99_ns = Hist.percentile h 0.99;
             ei_max_ns = Hist.max_value h;
             ei_mean_ns = Hist.mean h;
           })
         eps)
  in
  let queue_depth, queue_max = queue_depth_profile reqs in
  {
    tj_offered = List.length reqs;
    tj_served = !served;
    tj_errors = !errors;
    tj_dropped = !dropped;
    tj_failed = !failed;
    tj_first_arrival_ns = (if !first_arrival = max_int then 0 else !first_arrival);
    tj_window_ns =
      (if !last_finish = min_int then 0
       else max 1 (!last_finish - !first_arrival));
    tj_all = all;
    tj_clean = clean;
    tj_shadowed = shadowed;
    tj_queue_depth = queue_depth;
    tj_queue_max = queue_max;
    tj_episodes = impacts;
  }

let of_events events =
  let reqs = List.filter_map (fun e -> req_of_kind e.Event.kind) events in
  join ~episodes:(Episode.of_events events) reqs

let offered_rps t =
  if t.tj_window_ns = 0 then 0.0
  else float_of_int t.tj_offered *. 1e9 /. float_of_int t.tj_window_ns

let served_rps t =
  if t.tj_window_ns = 0 then 0.0
  else float_of_int t.tj_served *. 1e9 /. float_of_int t.tj_window_ns

(* {2 Rendering} *)

let json_version = 1

let hist_json h =
  let open Sg_util.Json in
  Obj
    [
      ("n", Int (Hist.n h));
      ("mean_ns", Fixed (1, Hist.mean h));
      ("stddev_ns", Fixed (1, Hist.stddev h));
      ("min_ns", Int (Hist.min_value h));
      ("p50_ns", Int (Hist.percentile h 0.50));
      ("p90_ns", Int (Hist.percentile h 0.90));
      ("p99_ns", Int (Hist.percentile h 0.99));
      ("p999_ns", Int (Hist.percentile h 0.999));
      ("max_ns", Int (Hist.max_value h));
    ]

let json t =
  let open Sg_util.Json in
  let impact e =
    Obj
      [
        ("cid", Int e.ei_cid);
        ("detect_ns", Int e.ei_detect_ns);
        ("end_ns", Int e.ei_end_ns);
        ("complete", Bool e.ei_complete);
        ("requests", Int e.ei_requests);
        ("p99_ns", Int e.ei_p99_ns);
        ("max_ns", Int e.ei_max_ns);
        ("mean_ns", Fixed (1, e.ei_mean_ns));
      ]
  in
  Obj
    [
      ("offered", Int t.tj_offered);
      ("served", Int t.tj_served);
      ("errors", Int t.tj_errors);
      ("dropped", Int t.tj_dropped);
      ("failed", Int t.tj_failed);
      ("window_ns", Int t.tj_window_ns);
      ("offered_rps", Fixed (1, offered_rps t));
      ("served_rps", Fixed (1, served_rps t));
      ( "queue",
        Obj
          [
            ("max", Int t.tj_queue_max);
            ("mean", Fixed (1, Hist.mean t.tj_queue_depth));
            ("p99", Int (Hist.percentile t.tj_queue_depth 0.99));
          ] );
      ( "latency",
        Obj
          [
            ("all", hist_json t.tj_all);
            ("clean", hist_json t.tj_clean);
            ("shadowed", hist_json t.tj_shadowed);
          ] );
      ("episodes_total", Int (List.length t.tj_episodes));
      ("episodes", List (List.map impact t.tj_episodes));
    ]

let to_json t = Sg_util.Json.to_string (json t)

let pp_hist_row ppf (label, h) =
  if Hist.n h = 0 then Format.fprintf ppf "  %-9s (empty)@." label
  else
    Format.fprintf ppf
      "  %-9s n=%-8d p50=%-9d p99=%-9d p999=%-9d max=%-9d mean=%.0f sd=%.0f@."
      label (Hist.n h)
      (Hist.percentile h 0.50)
      (Hist.percentile h 0.99)
      (Hist.percentile h 0.999)
      (Hist.max_value h) (Hist.mean h) (Hist.stddev h)

let pp ppf t =
  Format.fprintf ppf
    "offered %d (%.0f req/s) served %d (%.0f req/s) errors %d dropped %d \
     failed %d@."
    t.tj_offered (offered_rps t) t.tj_served (served_rps t) t.tj_errors
    t.tj_dropped t.tj_failed;
  Format.fprintf ppf "queue depth: max %d mean %.1f p99 %d@." t.tj_queue_max
    (Hist.mean t.tj_queue_depth)
    (Hist.percentile t.tj_queue_depth 0.99);
  Format.fprintf ppf "request latency (ns):@.";
  List.iter
    (pp_hist_row ppf)
    [ ("all", t.tj_all); ("clean", t.tj_clean); ("shadowed", t.tj_shadowed) ];
  let shown = List.filter (fun e -> e.ei_requests > 0) t.tj_episodes in
  Format.fprintf ppf "episodes: %d (%d with overlapping requests)@."
    (List.length t.tj_episodes)
    (List.length shown);
  let clean_p99 = Hist.percentile t.tj_clean 0.99 in
  List.iter
    (fun e ->
      Format.fprintf ppf
        "  cid %-3d detect=%-12d span=%-9d reqs=%-6d p99=%-9d (%+dns vs clean \
         p99) max=%d@."
        e.ei_cid e.ei_detect_ns
        (e.ei_end_ns - e.ei_detect_ns)
        e.ei_requests e.ei_p99_ns
        (e.ei_p99_ns - clean_p99)
        e.ei_max_ns)
    shown
