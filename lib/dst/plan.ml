(* Injection plans: the fault half of a DST scenario.

   Where the periodic SWIFI injector draws (register, bit, time) at
   virtual-time intervals, a plan names its faults explicitly — the
   n-th dispatch into a service, the n-th storage write — so a failing
   (ops, plan) pair replays and shrinks structurally: removing a fault
   never perturbs when the remaining ones fire relative to the ops. *)

module Rng = Sg_util.Rng
module Reg = Sg_kernel.Reg
module Json = Sg_util.Json

type fault =
  | Flip of {
      fl_service : string;
      fl_nth : int;  (* fires at the first dispatch with counter >= nth *)
      fl_reg : string;
      fl_bit : int;
      fl_at_pm : int;  (* offset into the op window, per-mille *)
    }
  | Storage_write of { sw_nth : int }
  | Crash of { cr_service : string; cr_nth : int }
  | Double of { db_service : string; db_nth : int; db_gap : int }
  | Perturb of {
      pb_iface : string;
      pb_fn : string;
      pb_field : string;  (* a param name, "ret", "@drop", "@dup", "@reorder" *)
      pb_nth : int;  (* fires at the first matching invocation >= nth *)
      pb_every : bool;  (* sustained: fire on every nth invocation *)
      pb_walk : bool;  (* racing: target recovery-walk replays instead *)
    }

type config = {
  pc_flip : int;
  pc_storage : int;
  pc_crash : int;
  pc_double : int;
  pc_max_faults : int;
  pc_nth_range : int;
}

let default_config =
  {
    pc_flip = 3;
    pc_storage = 2;
    pc_crash = 4;
    pc_double = 2;
    pc_max_faults = 3;
    pc_nth_range = 40;
  }

(* crash-heavy plans aimed at one service: what a mutant-hunting
   campaign uses, since a recovery bug only shows once recovery runs *)
let focus_config =
  {
    pc_flip = 1;
    pc_storage = 1;
    pc_crash = 6;
    pc_double = 3;
    pc_max_faults = 3;
    pc_nth_range = 25;
  }

let gen_fault config ~services rng =
  let weights =
    [|
      ("flip", config.pc_flip);
      ("storage", config.pc_storage);
      ("crash", config.pc_crash);
      ("double", config.pc_double);
    |]
  in
  let total = Array.fold_left (fun a (_, w) -> a + max 0 w) 0 weights in
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
  let service () = Rng.choose rng services in
  let nth () = 1 + Rng.int rng (max 1 config.pc_nth_range) in
  match cat with
  | "flip" ->
      Flip
        {
          fl_service = service ();
          fl_nth = nth ();
          fl_reg = Reg.to_string (Rng.choose rng Reg.all);
          fl_bit = Rng.int rng 32;
          fl_at_pm = Rng.int rng 1001;
        }
  | "storage" -> Storage_write { sw_nth = 1 + Rng.int rng 20 }
  | "crash" -> Crash { cr_service = service (); cr_nth = nth () }
  | _ ->
      Double
        {
          db_service = service ();
          db_nth = nth ();
          db_gap = 1 + Rng.int rng 3;
        }

let total_weight config =
  max 0 config.pc_flip + max 0 config.pc_storage + max 0 config.pc_crash
  + max 0 config.pc_double

let generate ~config ~services rng =
  (* an all-zero-weight config means "inject nothing": the fault-free
     control arm of a campaign, not an error *)
  if services = [] || total_weight config <= 0 then []
  else begin
    let services = Array.of_list services in
    let n = 1 + Rng.int rng (max 1 config.pc_max_faults) in
    List.init n (fun _ -> gen_fault config ~services rng)
  end

let fault_service = function
  | Flip { fl_service; _ } -> Some fl_service
  | Storage_write _ -> None
  | Crash { cr_service; _ } -> Some cr_service
  | Double { db_service; _ } -> Some db_service
  | Perturb { pb_iface; _ } -> Some pb_iface

let fault_label = function
  | Flip { fl_service; fl_nth; fl_reg; fl_bit; fl_at_pm } ->
      Printf.sprintf "flip(%s@%d %s bit %d at %d‰)" fl_service fl_nth fl_reg
        fl_bit fl_at_pm
  | Storage_write { sw_nth } -> Printf.sprintf "storage-write(%d)" sw_nth
  | Crash { cr_service; cr_nth } ->
      Printf.sprintf "crash(%s@%d)" cr_service cr_nth
  | Double { db_service; db_nth; db_gap } ->
      Printf.sprintf "double(%s@%d+%d)" db_service db_nth db_gap
  | Perturb { pb_iface; pb_fn; pb_field; pb_nth; pb_every; pb_walk } ->
      let tags =
        (if pb_every then [ "every" ] else [])
        @ if pb_walk then [ "walk" ] else []
      in
      Printf.sprintf "perturb(%s.%s %s@%d%s)" pb_iface pb_fn pb_field pb_nth
        (match tags with [] -> "" | ts -> " " ^ String.concat "," ts)

(* ---------- JSON ---------- *)

let fault_to_json f =
  let o name fields = Json.Obj (("fault", Json.Str name) :: fields) in
  match f with
  | Flip { fl_service; fl_nth; fl_reg; fl_bit; fl_at_pm } ->
      o "flip"
        [
          ("service", Json.Str fl_service);
          ("nth", Json.Int fl_nth);
          ("reg", Json.Str fl_reg);
          ("bit", Json.Int fl_bit);
          ("at_pm", Json.Int fl_at_pm);
        ]
  | Storage_write { sw_nth } -> o "storage_write" [ ("nth", Json.Int sw_nth) ]
  | Crash { cr_service; cr_nth } ->
      o "crash" [ ("service", Json.Str cr_service); ("nth", Json.Int cr_nth) ]
  | Double { db_service; db_nth; db_gap } ->
      o "double"
        [
          ("service", Json.Str db_service);
          ("nth", Json.Int db_nth);
          ("gap", Json.Int db_gap);
        ]
  | Perturb { pb_iface; pb_fn; pb_field; pb_nth; pb_every; pb_walk } ->
      (* the sustained/racing flags are emitted only when set, so every
         pre-existing single-shot artifact stays byte-identical *)
      o "perturb"
        ([
           ("service", Json.Str pb_iface);
           ("fn", Json.Str pb_fn);
           ("field", Json.Str pb_field);
           ("nth", Json.Int pb_nth);
         ]
        @ (if pb_every then [ ("every", Json.Bool true) ] else [])
        @ if pb_walk then [ ("walk", Json.Bool true) ] else [])

let fault_of_json j =
  let int k = Json.int_member k j and str k = Json.str_member k j in
  match str "fault" with
  | "flip" ->
      let reg = str "reg" in
      if Reg.of_string reg = None then Json.fail "unknown register %s" reg;
      Flip
        {
          fl_service = str "service";
          fl_nth = int "nth";
          fl_reg = reg;
          fl_bit = int "bit";
          fl_at_pm = int "at_pm";
        }
  | "storage_write" -> Storage_write { sw_nth = int "nth" }
  | "crash" -> Crash { cr_service = str "service"; cr_nth = int "nth" }
  | "double" ->
      Double { db_service = str "service"; db_nth = int "nth"; db_gap = int "gap" }
  | "perturb" ->
      (* absent flags parse as false: old artifacts stay loadable *)
      let flag k = Json.member k j = Some (Json.Bool true) in
      Perturb
        {
          pb_iface = str "service";
          pb_fn = str "fn";
          pb_field = str "field";
          pb_nth = int "nth";
          pb_every = flag "every";
          pb_walk = flag "walk";
        }
  | other -> Json.fail "unknown fault %s" other
