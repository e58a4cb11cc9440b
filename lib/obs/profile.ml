(* Episode profiling on top of {!Episode}: per-episode phase breakdown,
   the critical path through the recovery DAG, and per-component
   attribution of simulated nanoseconds. This is the analysis behind
   `sgtrace profile` and the phase columns of the Fig 7 / ablation
   harnesses. *)

module E = Episode

(* ---------- phase breakdown ---------- *)

(* The three phases of the paper's recovery-latency story, measured on
   the episode's own clock so they always sum exactly to its
   detect -> first-access span:

   - detect->reboot: fault detection until the micro-reboot completed
     (includes scheduling the booter);
   - reboot->walks: the rebooted component waiting for the first
     descriptor walk to start (on-demand recovery: until the first
     client actually needs its state);
   - walks->access: walk time until the first successful post-reboot
     invocation returns.

   Episodes with no walk charge the whole post-reboot wait to
   reboot->walks; episodes with no reboot (truncated streams) charge
   everything to detect->reboot. *)
type phases = {
  ph_detect_reboot_ns : int;
  ph_reboot_walks_ns : int;
  ph_walks_access_ns : int;
}

let phases_total p =
  p.ph_detect_reboot_ns + p.ph_reboot_walks_ns + p.ph_walks_access_ns

let phases (ep : E.t) =
  let t0 = ep.E.ep_detect_ns and a = ep.E.ep_end_ns in
  let clamp lo hi v = max lo (min hi v) in
  let reboot_end =
    List.fold_left
      (fun acc n ->
        match n.E.n_kind with
        | E.N_reboot _ -> Some (match acc with
            | Some r -> max r n.E.n_end_ns
            | None -> n.E.n_end_ns)
        | _ -> acc)
      None ep.E.ep_nodes
  in
  match reboot_end with
  | None ->
      {
        ph_detect_reboot_ns = a - t0;
        ph_reboot_walks_ns = 0;
        ph_walks_access_ns = 0;
      }
  | Some r ->
      let r = clamp t0 a r in
      let first_walk =
        List.fold_left
          (fun acc n ->
            match n.E.n_kind with
            | E.N_walk _ | E.N_recover _ ->
                Some (match acc with
                  | Some w -> min w n.E.n_start_ns
                  | None -> n.E.n_start_ns)
            | _ -> acc)
          None ep.E.ep_nodes
      in
      let w = match first_walk with Some w -> clamp r a w | None -> a in
      {
        ph_detect_reboot_ns = r - t0;
        ph_reboot_walks_ns = w - r;
        ph_walks_access_ns = a - w;
      }

(* ---------- critical path ---------- *)

(* Longest dependent chain by summed activity duration. [ep_nodes] is
   topologically sorted (deps reference earlier ids), so one forward
   pass suffices. Returns the chain in causal order. *)
let critical_path (ep : E.t) =
  match ep.E.ep_nodes with
  | [] -> []
  | nodes ->
      let n = List.length nodes in
      let by_id = Array.make n None in
      List.iter (fun nd -> by_id.(nd.E.n_id) <- Some nd) nodes;
      let dist = Array.make n 0 in
      let pred = Array.make n (-1) in
      List.iter
        (fun nd ->
          let base, bp =
            List.fold_left
              (fun (bd, bp) d ->
                if d >= 0 && d < n && dist.(d) > bd then (dist.(d), d)
                else (bd, bp))
              (0, (match nd.E.n_deps with [] -> -1 | d :: _ -> d))
              nd.E.n_deps
          in
          dist.(nd.E.n_id) <- base + E.duration_ns nd;
          pred.(nd.E.n_id) <- bp)
        nodes;
      (* sink: the completed episode ends at its closing span; otherwise
         take the overall longest chain *)
      let sink = ref 0 in
      Array.iteri (fun i d -> if d >= dist.(!sink) then sink := i) dist;
      let rec walk acc i =
        if i < 0 then acc
        else
          match by_id.(i) with
          | None -> acc
          | Some nd -> walk (nd :: acc) pred.(i)
      in
      walk [] !sink

let critical_path_ns ep =
  List.fold_left (fun acc n -> acc + E.duration_ns n) 0 (critical_path ep)

(* ---------- per-component attribution ---------- *)

(* Simulated nanoseconds charged to the component that owns each
   activity: the micro-reboot to the rebooted component; walks,
   recover-all chains and replay spans to the client on whose time
   account recovery ran (the C3 schedulability story: on-demand
   recovery bills the thread that needed the state). Reboot charges
   reconcile against the cost model: cost_ns = image_kb *
   Cost.reboot_ns_per_kb as emitted by the simulator. *)
type attr = {
  at_cid : int;
  at_reboot_ns : int;
  at_walk_ns : int;  (* walks + recover-all chains, as the client *)
  at_span_ns : int;  (* replay spans into the rebooted server *)
  at_crashes : int;  (* episodes in which this component crashed *)
}

let attr_total a = a.at_reboot_ns + a.at_walk_ns + a.at_span_ns

let attribution (eps : E.t list) =
  let tbl : (int, attr) Hashtbl.t = Hashtbl.create 8 in
  let get cid =
    match Hashtbl.find_opt tbl cid with
    | Some a -> a
    | None ->
        { at_cid = cid; at_reboot_ns = 0; at_walk_ns = 0; at_span_ns = 0;
          at_crashes = 0 }
  in
  let charge cid f = Hashtbl.replace tbl cid (f (get cid)) in
  List.iter
    (fun ep ->
      charge ep.E.ep_cid (fun a -> { a with at_crashes = a.at_crashes + 1 });
      List.iter
        (fun n ->
          let d = E.duration_ns n in
          match n.E.n_kind with
          | E.N_reboot { cost_ns; _ } ->
              charge ep.E.ep_cid (fun a ->
                  { a with at_reboot_ns = a.at_reboot_ns + cost_ns })
          | E.N_walk { client; _ } | E.N_recover { client; _ } ->
              charge client (fun a -> { a with at_walk_ns = a.at_walk_ns + d })
          | E.N_span { client; _ } ->
              charge client (fun a -> { a with at_span_ns = a.at_span_ns + d })
          | E.N_detect _ | E.N_divert _ | E.N_upcall _ | E.N_reflect _ -> ())
        ep.E.ep_nodes)
    eps;
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
  |> List.sort (fun a b ->
         match compare (attr_total b) (attr_total a) with
         | 0 -> compare a.at_cid b.at_cid
         | c -> c)

(* ---------- aggregate phase summary ---------- *)

type phase_summary = {
  ps_episodes : int;  (* stitched episodes *)
  ps_complete : int;  (* reached their first post-reboot access *)
  ps_detect_reboot : Hist.t;
  ps_reboot_walks : Hist.t;
  ps_walks_access : Hist.t;
  ps_span : Hist.t;  (* full detect -> first-access spans *)
}

let summarize (eps : E.t list) =
  let s =
    {
      ps_episodes = List.length eps;
      ps_complete = List.length (List.filter (fun e -> e.E.ep_complete) eps);
      ps_detect_reboot = Hist.create ();
      ps_reboot_walks = Hist.create ();
      ps_walks_access = Hist.create ();
      ps_span = Hist.create ();
    }
  in
  List.iter
    (fun ep ->
      if ep.E.ep_complete then begin
        let p = phases ep in
        Hist.add s.ps_detect_reboot p.ph_detect_reboot_ns;
        Hist.add s.ps_reboot_walks p.ph_reboot_walks_ns;
        Hist.add s.ps_walks_access p.ph_walks_access_ns;
        Hist.add s.ps_span (E.span_ns ep)
      end)
    eps;
  s

(* mean phase split of the *complete* episodes, in ns — what the Fig 7
   and ablation harnesses print next to their totals *)
let mean_phases_ns (eps : E.t list) =
  let s = summarize eps in
  if Hist.n s.ps_span = 0 then None
  else
    Some
      {
        ph_detect_reboot_ns = int_of_float (Hist.mean s.ps_detect_reboot);
        ph_reboot_walks_ns = int_of_float (Hist.mean s.ps_reboot_walks);
        ph_walks_access_ns = int_of_float (Hist.mean s.ps_walks_access);
      }

(* ---------- ASCII rendering ---------- *)

let bar_width = 44

let render_bar ~t0 ~span ~start_ns ~end_ns =
  let w = bar_width in
  if span <= 0 then String.make w ' '
  else begin
    let clamp v = max 0 (min w v) in
    let a = clamp (((start_ns - t0) * w) / span) in
    let b = clamp (((end_ns - t0) * w + span - 1) / span) in
    let b = max b (a + 1) in
    String.concat ""
      [ String.make a ' '; String.make (min (w - a) (b - a)) '#';
        String.make (max 0 (w - b)) ' ' ]
  end

let pp_episode ppf (i, ep) =
  let t0 = ep.E.ep_detect_ns in
  let span = E.span_ns ep in
  Format.fprintf ppf "episode %d: component %d, detected at %d ns, %s, span %d ns@."
    i ep.E.ep_cid t0
    (if ep.E.ep_complete then "recovered" else "incomplete")
    span;
  (match ep.E.ep_trigger with
  | Some tr ->
      Format.fprintf ppf "  trigger: %s %s bit %d -> %s@." tr.E.tr_fn
        tr.E.tr_reg tr.E.tr_bit tr.E.tr_outcome
  | None -> ());
  let p = phases ep in
  Format.fprintf ppf
    "  phases: detect->reboot %d ns | reboot->walks %d ns | walks->access %d ns@."
    p.ph_detect_reboot_ns p.ph_reboot_walks_ns p.ph_walks_access_ns;
  List.iter
    (fun n ->
      Format.fprintf ppf "  %-30s |%s| %d ns@."
        (E.node_label n)
        (render_bar ~t0 ~span ~start_ns:n.E.n_start_ns ~end_ns:n.E.n_end_ns)
        (E.duration_ns n))
    ep.E.ep_nodes;
  let cp = critical_path ep in
  Format.fprintf ppf "  critical path (%d ns): %s@." (critical_path_ns ep)
    (String.concat " -> "
       (List.map
          (fun n -> Printf.sprintf "%s+%d" (E.node_label n) (E.duration_ns n))
          cp))

let pp ppf (eps : E.t list) =
  let s = summarize eps in
  Format.fprintf ppf "%d episode(s), %d recovered to first access@."
    s.ps_episodes s.ps_complete;
  List.iteri (fun i ep -> pp_episode ppf (i, ep)) eps;
  if s.ps_episodes > 0 then begin
    Format.fprintf ppf "phase totals over complete episodes:@.";
    Format.fprintf ppf "  detect->reboot  %a@." Hist.pp s.ps_detect_reboot;
    Format.fprintf ppf "  reboot->walks   %a@." Hist.pp s.ps_reboot_walks;
    Format.fprintf ppf "  walks->access   %a@." Hist.pp s.ps_walks_access;
    Format.fprintf ppf "  episode span    %a@." Hist.pp s.ps_span;
    Format.fprintf ppf "attribution (simulated ns charged per component):@.";
    Format.fprintf ppf "  %6s %12s %12s %12s %12s %8s@." "cid" "reboot_ns"
      "walk_ns" "span_ns" "total_ns" "crashes";
    List.iter
      (fun a ->
        Format.fprintf ppf "  %6d %12d %12d %12d %12d %8d@." a.at_cid
          a.at_reboot_ns a.at_walk_ns a.at_span_ns (attr_total a) a.at_crashes)
      (attribution eps)
  end

(* ---------- versioned JSON profile ---------- *)

let json_version = 1

let to_json ?(source = "") (eps : E.t list) =
  let open Sg_util.Json in
  let s = summarize eps in
  let episode ep =
    let p = phases ep in
    Obj
      ([
         ("cid", Int ep.E.ep_cid);
         ("seq", Int ep.E.ep_seq);
         ("detect_ns", Int ep.E.ep_detect_ns);
         ("end_ns", Int ep.E.ep_end_ns);
         ("span_ns", Int (E.span_ns ep));
         ("complete", Bool ep.E.ep_complete);
       ]
      @ (match ep.E.ep_trigger with
        | None -> []
        | Some tr ->
            [
              ( "trigger",
                Obj
                  [
                    ("fn", Str tr.E.tr_fn);
                    ("reg", Str tr.E.tr_reg);
                    ("bit", Int tr.E.tr_bit);
                    ("outcome", Str tr.E.tr_outcome);
                  ] );
            ])
      @ [
          ( "phases",
            Obj
              [
                ("detect_reboot_ns", Int p.ph_detect_reboot_ns);
                ("reboot_walks_ns", Int p.ph_reboot_walks_ns);
                ("walks_access_ns", Int p.ph_walks_access_ns);
              ] );
          ("critical_path_ns", Int (critical_path_ns ep));
          ( "critical_path",
            List
              (List.map
                 (fun n ->
                   Obj
                     [
                       ("node", Str (E.node_label n));
                       ("dur_ns", Int (E.duration_ns n));
                     ])
                 (critical_path ep)) );
          ("nodes", Int (List.length ep.E.ep_nodes));
        ])
  in
  let attr a =
    Obj
      [
        ("cid", Int a.at_cid);
        ("reboot_ns", Int a.at_reboot_ns);
        ("walk_ns", Int a.at_walk_ns);
        ("span_ns", Int a.at_span_ns);
        ("total_ns", Int (attr_total a));
        ("crashes", Int a.at_crashes);
      ]
  in
  to_string
    (Obj
       ((("version", Int json_version)
        :: (if source = "" then [] else [ ("source", Str source) ]))
       @ [
           ("episodes_total", Int s.ps_episodes);
           ("episodes_complete", Int s.ps_complete);
           ("episodes", List (List.map episode eps));
           ("attribution", List (List.map attr (attribution eps)));
         ]))
