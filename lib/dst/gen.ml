(* Seed-deterministic operation-sequence generation (DESIGN.md §3.9).

   Every draw comes from the explicit [Rng.t] the caller passes, in one
   fixed left-to-right order, so a sequence is a pure function of
   (mix, seed): the replay artifact only needs the seed. All mix knobs
   are integer weights because integer weights compare exactly across
   platforms. *)

module Rng = Sg_util.Rng

type op =
  | Sched_pingpong of { rounds : int }
  | Mm_cycle of { fanout : int }
  | Fs_open of { path : int }
  | Fs_write of { path : int; byte : int }
  | Fs_read of { path : int }
  | Fs_close of { path : int }
  | Lock_cycle of { cycles : int; holds : int }
  | Evt_chain of { triggers : int }
  | Timer_tick of { periods : int; period_ns : int }
  | Desc_burst of { count : int }
  | Restart of { service : string }

type mix = {
  mx_sched : int;
  mx_mm : int;
  mx_fs : int;
  mx_lock : int;
  mx_evt : int;
  mx_timer : int;
  mx_burst : int;
  mx_restart : int;
  mx_paths : int;  (* RamFS path-pool size: smaller = more collisions *)
  mx_contention : int;  (* upper bound on lock hold length (yields) *)
}

let default_mix =
  {
    mx_sched = 10;
    mx_mm = 10;
    mx_fs = 14;
    mx_lock = 10;
    mx_evt = 10;
    mx_timer = 6;
    mx_burst = 4;
    mx_restart = 4;
    mx_paths = 2;
    mx_contention = 3;
  }

(* a mix concentrated on one service, for targeted (mutant-hunting)
   campaigns: the named service keeps its weight, the others drop to a
   trickle so cross-service interactions still occur *)
let focus_mix iface =
  let w name full = if name = iface then 30 else full in
  {
    default_mix with
    mx_sched = w "sched" 2;
    mx_mm = w "mm" 2;
    mx_fs = w "fs" 2;
    mx_lock = w "lock" 2;
    mx_evt = w "evt" 2;
    mx_timer = w "timer" 2;
    mx_burst = (if iface = "fs" then 8 else 1);
    mx_restart = 2;
  }

let path_name i = Printf.sprintf "f%d" i

let timer_periods = [| 50_000; 100_000; 200_000; 400_000 |]

let gen_op mix rng =
  let weights =
    [|
      ("sched", mix.mx_sched);
      ("mm", mix.mx_mm);
      ("fs", mix.mx_fs);
      ("lock", mix.mx_lock);
      ("evt", mix.mx_evt);
      ("timer", mix.mx_timer);
      ("burst", mix.mx_burst);
      ("restart", mix.mx_restart);
    |]
  in
  let total = Array.fold_left (fun a (_, w) -> a + max 0 w) 0 weights in
  if total <= 0 then invalid_arg "Gen.generate: mix has no positive weight";
  let pick = Rng.int rng total in
  let cat =
    let acc = ref 0 and chosen = ref "" in
    Array.iter
      (fun (name, w) ->
        if !chosen = "" then begin
          acc := !acc + max 0 w;
          if pick < !acc then chosen := name
        end)
      weights;
    !chosen
  in
  let paths = max 1 mix.mx_paths in
  match cat with
  | "sched" -> Sched_pingpong { rounds = 1 + Rng.int rng 3 }
  | "mm" -> Mm_cycle { fanout = 1 + Rng.int rng 2 }
  | "fs" -> (
      (* open/write/read/close with writes and reads dominating *)
      match Rng.int rng 8 with
      | 0 -> Fs_open { path = Rng.int rng paths }
      | 1 -> Fs_close { path = Rng.int rng paths }
      | 2 | 3 | 4 ->
          Fs_write { path = Rng.int rng paths; byte = Rng.int rng 26 }
      | _ -> Fs_read { path = Rng.int rng paths })
  | "lock" ->
      Lock_cycle
        { cycles = 1 + Rng.int rng 3; holds = Rng.int rng (max 1 mix.mx_contention) }
  | "evt" -> Evt_chain { triggers = 1 + Rng.int rng 3 }
  | "timer" ->
      Timer_tick
        {
          periods = 1 + Rng.int rng 3;
          period_ns = Rng.choose rng timer_periods;
        }
  | "burst" -> Desc_burst { count = 1 + Rng.int rng 4 }
  | _ ->
      Restart
        {
          service =
            Rng.choose rng
              (Array.of_list Sg_components.Workloads.all_ifaces);
        }

let generate ~mix rng ~len = List.init len (fun _ -> gen_op mix rng)

let op_service = function
  | Sched_pingpong _ -> "sched"
  | Mm_cycle _ -> "mm"
  | Fs_open _ | Fs_write _ | Fs_read _ | Fs_close _ | Desc_burst _ -> "fs"
  | Lock_cycle _ -> "lock"
  | Evt_chain _ -> "evt"
  | Timer_tick _ -> "timer"
  | Restart { service } -> service

let services ops =
  List.sort_uniq compare (List.map op_service ops)

let op_label = function
  | Sched_pingpong { rounds } -> Printf.sprintf "sched_pingpong(%d)" rounds
  | Mm_cycle { fanout } -> Printf.sprintf "mm_cycle(%d)" fanout
  | Fs_open { path } -> Printf.sprintf "fs_open(%s)" (path_name path)
  | Fs_write { path; byte } ->
      Printf.sprintf "fs_write(%s,%d)" (path_name path) byte
  | Fs_read { path } -> Printf.sprintf "fs_read(%s)" (path_name path)
  | Fs_close { path } -> Printf.sprintf "fs_close(%s)" (path_name path)
  | Lock_cycle { cycles; holds } -> Printf.sprintf "lock_cycle(%d,%d)" cycles holds
  | Evt_chain { triggers } -> Printf.sprintf "evt_chain(%d)" triggers
  | Timer_tick { periods; period_ns } ->
      Printf.sprintf "timer_tick(%d,%d)" periods period_ns
  | Desc_burst { count } -> Printf.sprintf "desc_burst(%d)" count
  | Restart { service } -> Printf.sprintf "restart(%s)" service

(* ---------- JSON (replay artifacts) ---------- *)

module Json = Sg_util.Json

let op_to_json op =
  let o name fields = Json.Obj (("op", Json.Str name) :: fields) in
  match op with
  | Sched_pingpong { rounds } -> o "sched_pingpong" [ ("rounds", Json.Int rounds) ]
  | Mm_cycle { fanout } -> o "mm_cycle" [ ("fanout", Json.Int fanout) ]
  | Fs_open { path } -> o "fs_open" [ ("path", Json.Int path) ]
  | Fs_write { path; byte } ->
      o "fs_write" [ ("path", Json.Int path); ("byte", Json.Int byte) ]
  | Fs_read { path } -> o "fs_read" [ ("path", Json.Int path) ]
  | Fs_close { path } -> o "fs_close" [ ("path", Json.Int path) ]
  | Lock_cycle { cycles; holds } ->
      o "lock_cycle" [ ("cycles", Json.Int cycles); ("holds", Json.Int holds) ]
  | Evt_chain { triggers } -> o "evt_chain" [ ("triggers", Json.Int triggers) ]
  | Timer_tick { periods; period_ns } ->
      o "timer_tick"
        [ ("periods", Json.Int periods); ("period_ns", Json.Int period_ns) ]
  | Desc_burst { count } -> o "desc_burst" [ ("count", Json.Int count) ]
  | Restart { service } -> o "restart" [ ("service", Json.Str service) ]

let op_of_json j =
  let int k = Json.int_member k j in
  match Json.str_member "op" j with
  | "sched_pingpong" -> Sched_pingpong { rounds = int "rounds" }
  | "mm_cycle" -> Mm_cycle { fanout = int "fanout" }
  | "fs_open" -> Fs_open { path = int "path" }
  | "fs_write" -> Fs_write { path = int "path"; byte = int "byte" }
  | "fs_read" -> Fs_read { path = int "path" }
  | "fs_close" -> Fs_close { path = int "path" }
  | "lock_cycle" -> Lock_cycle { cycles = int "cycles"; holds = int "holds" }
  | "evt_chain" -> Evt_chain { triggers = int "triggers" }
  | "timer_tick" ->
      Timer_tick { periods = int "periods"; period_ns = int "period_ns" }
  | "desc_burst" -> Desc_burst { count = int "count" }
  | "restart" -> Restart { service = Json.str_member "service" j }
  | other -> Json.fail "unknown op %s" other
