(* The compiler-emitted stub modules, compiled into sg_genstubs by the
   build, must drive the system exactly like the interpreted backend:
   fault-free runs, crash-recovery storms, a differential comparison of
   virtual-time cost against the interpreter, and a DST oracle that
   compares the two backends' event streams seed by seed. *)

module Sim = Sg_os.Sim
module Comp = Sg_os.Comp
module Sysbuild = Sg_components.Sysbuild
module Workloads = Sg_components.Workloads
module Codegen = Superglue.Codegen
module Compiler = Superglue.Compiler
module Dst = Sg_dst.Dst
module Exec = Sg_dst.Exec

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_clean sys result check =
  (match result with
  | Sim.Completed -> ()
  | r ->
      Alcotest.failf "[%s] run did not complete: %a" sys.Sysbuild.sys_mode
        Sim.pp_run_result r);
  match check () with
  | [] -> ()
  | violations ->
      Alcotest.failf "[%s] postconditions violated: %s" sys.Sysbuild.sys_mode
        (String.concat "; " violations)

let test_gen_faultfree iface () =
  let sys = Sysbuild.build Sg_genstubs.Gen_stubset.mode in
  let check = Workloads.setup sys ~iface ~iters:25 in
  check_clean sys (Sim.run sys.Sysbuild.sys_sim) check

let install_crasher sys iface ~period =
  let target = Sysbuild.cid_of_iface sys iface in
  let count = ref 0 in
  Sim.set_on_dispatch sys.Sysbuild.sys_sim
    (Some
       (fun sim cid _fn ->
         if cid = target then begin
           incr count;
           if !count mod period = 0 then begin
             Sim.mark_failed sim cid ~detector:"forced";
             raise (Comp.Crash { cid; detector = "forced" })
           end
         end))

let test_gen_recovers iface period () =
  let sys = Sysbuild.build Sg_genstubs.Gen_stubset.mode in
  let check = Workloads.setup sys ~iface ~iters:25 in
  install_crasher sys iface ~period;
  check_clean sys (Sim.run sys.Sysbuild.sys_sim) check;
  if Sim.reboots sys.Sysbuild.sys_sim = 0 then
    Alcotest.fail "expected at least one micro-reboot"

(* Differential check: the generated code and the interpreter are two
   backends of the same compiler and must charge identical virtual time
   and perform identical invocation counts on identical runs. *)
let test_gen_equals_interp iface () =
  let run mode =
    let sys = Sysbuild.build mode in
    let check = Workloads.setup sys ~iface ~iters:40 in
    install_crasher sys iface ~period:11;
    check_clean sys (Sim.run sys.Sysbuild.sys_sim) check;
    ( Sim.now sys.Sysbuild.sys_sim,
      Sim.invocations sys.Sysbuild.sys_sim,
      Sim.reboots sys.Sysbuild.sys_sim )
  in
  let interp = run Superglue.Stubset.mode in
  let generated = run Sg_genstubs.Gen_stubset.mode in
  let t1, i1, r1 = interp and t2, i2, r2 = generated in
  if interp <> generated then
    Alcotest.failf
      "backends diverge: interp (t=%d, inv=%d, reboots=%d) vs generated (t=%d, inv=%d, reboots=%d)"
      t1 i1 r1 t2 i2 r2

(* DST differential oracle: over a range of default-profile seeds — which
   holds the known-failing ledger seeds 5692 and 6121, so failing paths
   are compared too — the interpreted and generated backends reach the
   same verdict class with byte-identical JSON-lines event streams. *)
let test_gen_equals_interp_dst () =
  let observe sut seed =
    match (Dst.run_seed ~sut seed).Dst.rr_result with
    | Ok o ->
        ( Exec.verdict_class o.Exec.oc_verdict,
          List.map Sg_obs.Jsonl.to_string o.Exec.oc_stream )
    | Error m -> Alcotest.failf "seed %d: %s" seed m
  in
  let failing = ref 0 in
  for seed = 5_200 to 6_199 do
    let ci, si = observe Exec.Pristine seed in
    let cg, sg = observe Exec.Generated seed in
    if ci <> cg then
      Alcotest.failf "seed %d: verdict %s (interpreted) vs %s (generated)" seed
        ci cg;
    if si <> sg then begin
      let rec first_diff i = function
        | a :: ra, b :: rb -> if a = b then first_diff (i + 1) (ra, rb) else i
        | _ -> i
      in
      Alcotest.failf "seed %d: event streams diverge at event %d (%d vs %d events)"
        seed (first_diff 0 (si, sg)) (List.length si) (List.length sg)
    end;
    if ci <> "pass" then incr failing
  done;
  (* the ledger seeds fail on both backends: the comparison covered
     failing paths, not only passing ones *)
  Alcotest.(check int) "ledger seeds in range" 2 !failing

let test_gen_sut_label_round_trips () =
  Alcotest.(check string) "label" "superglue-gen" (Exec.sut_label Exec.Generated);
  Alcotest.(check bool) "parsed back" true
    (Dst.sut_of_label "superglue-gen" = Some Exec.Generated)

let test_emitted_text_structure () =
  List.iter
    (fun name ->
      let text = Codegen.emit (Compiler.builtin name) in
      List.iter
        (fun fragment ->
          if not (contains text fragment) then
            Alcotest.failf "%s: generated code lacks %S" name fragment)
        [ "let client_config"; "let server_config"; "let track"; "let walk" ])
    Compiler.builtin_names

let test_emitted_loc_exceeds_idl () =
  (* Fig 6(c): a small declarative spec expands by roughly an order of
     magnitude into recovery code *)
  List.iter
    (fun name ->
      let a = Compiler.builtin name in
      let idl = Codegen.loc a.Compiler.a_source in
      let generated = Codegen.loc (Codegen.emit a) in
      if generated < (5 * idl) / 2 then
        Alcotest.failf "%s: %d LOC of IDL only produced %d LOC" name idl generated)
    Compiler.builtin_names

let test_template_catalogue () =
  (* global interfaces include the G0/U0 templates, local ones do not *)
  let names a = List.map fst (Codegen.included_templates a) in
  let evt = names (Compiler.builtin "evt") in
  let lock = names (Compiler.builtin "lock") in
  Alcotest.(check bool) "evt includes g0 upcall" true
    (List.mem "server/g0-upcall-creator" evt);
  Alcotest.(check bool) "lock excludes g0" false
    (List.mem "server/g0-upcall-creator" lock);
  Alcotest.(check bool) "lock includes re-acquire" true
    (List.mem "client/walk/block-hold-reacquire" lock);
  Alcotest.(check bool) "catalogue is non-trivial" true
    (Superglue.Templates.count >= 30)

let () =
  Alcotest.run "sg_genstubs"
    [
      ( "faultfree",
        List.map
          (fun iface ->
            Alcotest.test_case (iface ^ " fault-free") `Quick (test_gen_faultfree iface))
          Workloads.all_ifaces );
      ( "recovery",
        List.map
          (fun iface ->
            Alcotest.test_case
              (iface ^ " survives crashes")
              `Quick
              (test_gen_recovers iface 9))
          Workloads.all_ifaces );
      ( "differential",
        List.map
          (fun iface ->
            Alcotest.test_case
              (iface ^ ": generated == interpreted")
              `Quick
              (test_gen_equals_interp iface))
          Workloads.all_ifaces
        @ [
            Alcotest.test_case "DST seeds: generated == interpreted" `Quick
              test_gen_equals_interp_dst;
            Alcotest.test_case "superglue-gen sut label" `Quick
              test_gen_sut_label_round_trips;
          ] );
      ( "emission",
        [
          Alcotest.test_case "structure" `Quick test_emitted_text_structure;
          Alcotest.test_case "LOC expansion" `Quick test_emitted_loc_exceeds_idl;
          Alcotest.test_case "template catalogue" `Quick test_template_catalogue;
        ] );
    ]
