(* Static worst-case recovery-latency bounds.

   For each (crashed service, client interface) pair, an upper bound on
   the span of any single recovery episode the dynamic profiler
   (Sg_obs.Episode) can stitch, computed from the compiled state machine
   and the calibrated cost model alone:

     direct(S)  = dispatch + reboot(S) + t0(S) + walks(S) + d0(S) + access(S)

   where reboot prices the booter memcpy (reboot_ns_per_kb * image KB),
   t0 the eager wakeup pass over at most thread_cap blocked threads
   (plus one wakeup invocation into each dependency target), walks the
   longest replay walk (the maximum |plan| over all machine states) once
   per tracked descriptor per client — bounded statically by the
   interface's desc_table_cap — and access the first post-reboot call
   that ends the episode. Crashes reach other interfaces only through
   the wakeup digraph; a client chained to the crashed service via k
   edges pays its own access plus one wakeup invocation per hop on top
   of direct(S). Everything is linear in the cost constants, so
   [Cost.scale] commutes with the bound up to the unscaled usage terms
   (affine linearity; see DESIGN.md §3.8). *)

module Compiler = Superglue.Compiler
module Machine = Superglue.Machine
module Model = Superglue.Model
module Ir = Superglue.Ir
module Cost = Sg_kernel.Cost
module Usage = Sg_kernel.Usage
module Json = Sg_util.Json

type params = {
  p_cost : Cost.t;
  p_image_kb : (string * int) list;
      (* per-service image size; unknown services default to 64 KB *)
  p_usage_ns : (string * int) list;
      (* per-service worst-case usage duration of one call; default 0 *)
  p_app_clients : int;  (* application clients per service *)
  p_thread_cap : int;  (* max threads blocked inside one service *)
  p_wakeup_deps : (string * string * string) list;
}

let probe_usage profile probe_fn =
  match profile probe_fn with
  | Some u -> Usage.duration_ns u
  | None -> 0

let default_params =
  {
    p_cost = Cost.default;
    p_image_kb = Sg_components.Sysbuild.image_kb;
    p_usage_ns =
      [
        ("sched", probe_usage Sg_components.Profiles.sched "sched_probe");
        ("mm", probe_usage Sg_components.Profiles.mm "mman_probe");
        ("fs", probe_usage Sg_components.Profiles.fs "tprobe");
        ("lock", probe_usage Sg_components.Profiles.lock "lock_probe");
        ("evt", probe_usage Sg_components.Profiles.event "evt_probe");
        ("timer", probe_usage Sg_components.Profiles.timer "timer_probe");
      ];
    p_app_clients = 2;
    p_thread_cap = 8;
    p_wakeup_deps = Sg_components.Sysbuild.wakeup_deps;
  }

type breakdown = {
  b_service : string;
  b_image_kb : int;
  b_reboot_ns : int;
  b_t0_ns : int;
  b_walk_len : int;  (* longest recovery plan, in replayed calls *)
  b_walk_one_ns : int;  (* one full walk of one descriptor *)
  b_cap : int option;  (* desc_table_cap, None = unbounded (SG014) *)
  b_clients : int;
  b_walks_ns : int option;
  b_d0_ns : int;
  b_access_ns : int;
  b_direct_ns : int option;
}

type kind = Direct | Transitive of int | Unrelated

type pair = {
  p_crashed : string;
  p_client : string;
  p_kind : kind;
  p_bound_ns : int option;
}

type report = {
  r_cost : Cost.t;
  r_services : breakdown list;
  r_pairs : pair list;
}

let lookup assoc ~default name =
  Option.value (List.assoc_opt name assoc) ~default

(* The longest recovery plan over all machine states: no tracked state
   can require a longer replay walk than this. *)
let walk_len machine =
  List.fold_left
    (fun acc st ->
      if st = Machine.s0 then acc
      else
        let p = Machine.plan machine st in
        max acc
          (List.length p.Machine.pl_path + List.length p.Machine.pl_restore))
    0 (Machine.states machine)

let breakdown params a =
  let name = a.Compiler.a_name in
  let ir = a.Compiler.a_ir in
  let m = ir.Ir.ir_model in
  let c = params.p_cost in
  let usage_of n = lookup params.p_usage_ns ~default:0 n in
  let inv_of n = c.Cost.invocation_ns + usage_of n in
  let inv = inv_of name in
  let image = lookup params.p_image_kb ~default:64 name in
  let reboot = c.Cost.reboot_ns_per_kb * image in
  let wmax = walk_len a.Compiler.a_machine in
  let clients =
    params.p_app_clients
    + List.length
        (List.filter (fun (_, t, _) -> t = name) params.p_wakeup_deps)
  in
  (* one walk of one descriptor: table lookup, replay of the longest
     plan (each call tracked again by the stub), the final tracking
     update, plus the model-selected extras — parent lookup (D1),
     cross-component upcall (XCParent), namespace re-registration via
     storage (G0/U0) and resource-data restore (G1). *)
  let walk_one =
    c.Cost.sg_lookup_ns
    + (wmax * (inv + c.Cost.sg_track_ns))
    + c.Cost.sg_track_ns
    + (if m.Model.parent <> Model.Solo then c.Cost.sg_lookup_ns else 0)
    + (if m.Model.parent = Model.XCParent then c.Cost.upcall_ns else 0)
    + (if m.Model.global then
         c.Cost.storage_op_ns + c.Cost.upcall_ns + inv + c.Cost.sg_track_ns
       else 0)
    + (if m.Model.resc_data then c.Cost.storage_op_ns + c.Cost.cbuf_map_ns
       else 0)
  in
  (* T0 eager pass: one reflection, then for each of at most thread_cap
     blocked threads a wakeup plus one invocation into each dependency
     target the service wakes through. *)
  let t0 =
    if m.Model.block then
      let wake_targets =
        List.filter_map
          (fun (d, t, _) -> if d = name then Some t else None)
          params.p_wakeup_deps
      in
      let per_thread =
        c.Cost.wakeup_ns
        + List.fold_left
            (fun acc t -> acc + inv_of t + c.Cost.sg_track_ns)
            0 wake_targets
      in
      c.Cost.reflect_ns + (params.p_thread_cap * per_thread)
    else 0
  in
  let cap = m.Model.table_cap in
  let tracked = ir.Ir.ir_creates <> [] in
  let walks =
    if not tracked then Some 0
    else Option.map (fun k -> clients * k * walk_one) cap
  in
  let d0 =
    if m.Model.close_children && tracked then
      match cap with
      | Some k -> clients * k * (inv + c.Cost.sg_track_ns)
      | None -> 0
    else 0
  in
  let access = c.Cost.sg_lookup_ns + inv + c.Cost.sg_track_ns in
  let direct =
    Option.map
      (fun w -> c.Cost.dispatch_ns + reboot + t0 + w + d0 + access)
      walks
  in
  {
    b_service = name;
    b_image_kb = image;
    b_reboot_ns = reboot;
    b_t0_ns = t0;
    b_walk_len = wmax;
    b_walk_one_ns = walk_one;
    b_cap = cap;
    b_clients = clients;
    b_walks_ns = walks;
    b_d0_ns = d0;
    b_access_ns = access;
    b_direct_ns = direct;
  }

(* Shortest dependency path client ->* crashed: the chain through which
   a reboot of [crashed] is felt at [client]'s interface. Returns the
   hop targets in order, excluding [client] itself. *)
let dep_path deps ~client ~crashed =
  let q = Queue.create () in
  let pred = Hashtbl.create 8 in
  Hashtbl.replace pred client client;
  Queue.add client q;
  let found = ref false in
  while (not !found) && not (Queue.is_empty q) do
    let n = Queue.pop q in
    if n = crashed && n <> client then found := true
    else
      List.iter
        (fun (d, t, _) ->
          if d = n && not (Hashtbl.mem pred t) then begin
            Hashtbl.replace pred t n;
            Queue.add t q
          end)
        deps
  done;
  if not (Hashtbl.mem pred crashed) || client = crashed then None
  else
    let rec walk acc n =
      if n = client then acc else walk (n :: acc) (Hashtbl.find pred n)
    in
    Some (walk [] crashed)

let analyze ?(params = default_params) artifacts =
  let services = List.map (breakdown params) artifacts in
  let find name = List.find (fun b -> b.b_service = name) services in
  let c = params.p_cost in
  let usage_of n = lookup params.p_usage_ns ~default:0 n in
  let pairs =
    List.concat_map
      (fun crashed ->
        List.map
          (fun client ->
            let cn = crashed.Compiler.a_name
            and cl = client.Compiler.a_name in
            if cn = cl then
              {
                p_crashed = cn;
                p_client = cl;
                p_kind = Direct;
                p_bound_ns = (find cn).b_direct_ns;
              }
            else
              match dep_path params.p_wakeup_deps ~client:cl ~crashed:cn with
              | Some path ->
                  let hop_cost =
                    List.fold_left
                      (fun acc n ->
                        acc + c.Cost.invocation_ns + usage_of n
                        + c.Cost.sg_track_ns)
                      0 path
                  in
                  {
                    p_crashed = cn;
                    p_client = cl;
                    p_kind = Transitive (List.length path);
                    p_bound_ns =
                      Option.map
                        (fun d -> (find cl).b_access_ns + hop_cost + d)
                        (find cn).b_direct_ns;
                  }
              | None ->
                  (* the crash is invisible at this interface: the bound
                     is the client's own first post-reboot access *)
                  {
                    p_crashed = cn;
                    p_client = cl;
                    p_kind = Unrelated;
                    p_bound_ns = Some (find cl).b_access_ns;
                  })
          artifacts)
      artifacts
  in
  { r_cost = params.p_cost; r_services = services; r_pairs = pairs }

let bound_for report ~crashed ~client =
  List.find_map
    (fun p ->
      if p.p_crashed = crashed && p.p_client = client then Some p.p_bound_ns
      else None)
    report.r_pairs
  |> Option.join

let kind_to_string = function
  | Direct -> "direct"
  | Transitive _ -> "transitive"
  | Unrelated -> "unrelated"

(* ---------- rendering ---------- *)

let opt_ns = function None -> "unbounded" | Some n -> string_of_int n

let render report =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "service     img_kb  reboot_ns   t0_ns  len  walk_one  cap  clients  \
     direct_ns\n";
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "%-11s %6d %10d %7d %4d %9d %4s %8d %10s\n" b.b_service
           b.b_image_kb b.b_reboot_ns b.b_t0_ns b.b_walk_len b.b_walk_one_ns
           (match b.b_cap with None -> "-" | Some k -> string_of_int k)
           b.b_clients (opt_ns b.b_direct_ns)))
    report.r_services;
  Buffer.add_string buf "\ncrashed     client      kind        bound_ns\n";
  List.iter
    (fun p ->
      Buffer.add_string buf
        (Printf.sprintf "%-11s %-11s %-11s %10s\n" p.p_crashed p.p_client
           (match p.p_kind with
           | Direct -> "direct"
           | Transitive k -> Printf.sprintf "trans(%d)" k
           | Unrelated -> "unrelated")
           (opt_ns p.p_bound_ns)))
    report.r_pairs;
  Buffer.contents buf

(* ---------- JSON ---------- *)

let opt_int = function None -> Json.Null | Some n -> Json.Int n

let to_json report =
  Json.versioned_report ~schema:"sgc-bound" ~version:1
    [
      ( "cost",
        Json.Obj
          (List.map (fun (k, v) -> (k, Json.Int v)) (Cost.to_assoc report.r_cost))
      );
      ( "services",
        Json.List
          (List.map
             (fun b ->
               Json.Obj
                 [
                   ("service", Json.Str b.b_service);
                   ("image_kb", Json.Int b.b_image_kb);
                   ("reboot_ns", Json.Int b.b_reboot_ns);
                   ("t0_ns", Json.Int b.b_t0_ns);
                   ("walk_len", Json.Int b.b_walk_len);
                   ("walk_one_ns", Json.Int b.b_walk_one_ns);
                   ("cap", opt_int b.b_cap);
                   ("clients", Json.Int b.b_clients);
                   ("walks_ns", opt_int b.b_walks_ns);
                   ("d0_ns", Json.Int b.b_d0_ns);
                   ("access_ns", Json.Int b.b_access_ns);
                   ("direct_ns", opt_int b.b_direct_ns);
                 ])
             report.r_services) );
      ( "pairs",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 ([
                    ("crashed", Json.Str p.p_crashed);
                    ("client", Json.Str p.p_client);
                    ("kind", Json.Str (kind_to_string p.p_kind));
                  ]
                 @ (match p.p_kind with
                   | Transitive k -> [ ("hops", Json.Int k) ]
                   | Direct | Unrelated -> [])
                 @ [ ("bound_ns", opt_int p.p_bound_ns) ]))
             report.r_pairs) );
    ]
