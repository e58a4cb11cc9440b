(* Replay artifacts: a failing scenario serialized to one JSON object.

   The artifact is the whole repro: the sut label, the seed, the
   verdict class the run produced, the op sequence (or classic workload
   shape) and the injection plan. Rendering is canonical — field order
   is fixed and Json.to_string emits no insignificant whitespace — so
   equal scenarios produce byte-identical artifacts, which the CI gate
   checks across shrink parallelism levels. *)

module Json = Sg_util.Json

let schema = "superglue-dst"
let version = 1

type t = {
  af_sut : string;  (* Exec.sut_label *)
  af_verdict : string;  (* Exec.verdict_class *)
  af_scenario : Exec.scenario;
}

let workload_to_json = function
  | Exec.Ops ops ->
      Json.Obj
        [
          ("kind", Json.Str "ops");
          ("ops", Json.List (List.map Gen.op_to_json ops));
        ]
  | Exec.Classic { iface; iters; knob } ->
      Json.Obj
        [
          ("kind", Json.Str "classic");
          ("iface", Json.Str iface);
          ("iters", Json.Int iters);
          ("knob", Json.Int knob);
        ]

let to_json a =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("version", Json.Int version);
      ("sut", Json.Str a.af_sut);
      ("seed", Json.Int a.af_scenario.Exec.sc_seed);
      ("verdict", Json.Str a.af_verdict);
      ("workload", workload_to_json a.af_scenario.Exec.sc_workload);
      ("plan", Json.List (List.map Plan.fault_to_json a.af_scenario.Exec.sc_plan));
    ]

let to_string a = Json.to_string (to_json a)

let workload_of_json j =
  match Json.str_member "kind" j with
  | "ops" -> (
      match Json.member "ops" j with
      | Some (Json.List ops) -> Exec.Ops (List.map Gen.op_of_json ops)
      | _ -> Json.fail "ops workload lacks an \"ops\" array")
  | "classic" ->
      Exec.Classic
        {
          iface = Json.str_member "iface" j;
          iters = Json.int_member "iters" j;
          knob = Json.int_member "knob" j;
        }
  | k -> Json.fail "unknown workload kind %s" k

let of_json j =
  if Json.member "schema" j <> Some (Json.Str schema) then
    Json.fail "not a %s artifact" schema;
  let v = Json.int_member "version" j in
  if v <> version then Json.fail "unsupported artifact version %d" v;
  let plan =
    match Json.member "plan" j with
    | Some (Json.List fs) -> List.map Plan.fault_of_json fs
    | _ -> Json.fail "artifact lacks a \"plan\" array"
  in
  let workload =
    match Json.member "workload" j with
    | Some w -> workload_of_json w
    | None -> Json.fail "artifact lacks a \"workload\""
  in
  {
    af_sut = Json.str_member "sut" j;
    af_verdict = Json.str_member "verdict" j;
    af_scenario =
      {
        Exec.sc_seed = Json.int_member "seed" j;
        sc_workload = workload;
        sc_plan = plan;
      };
  }

let of_string s = of_json (Json.parse s)

let save path a =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string a);
      output_char oc '\n')

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (In_channel.input_all ic))
