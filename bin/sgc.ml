(* sgc — the SuperGlue IDL compiler command-line interface.

   Compiles .sgidl interface specifications into stub modules, renders
   the plain header of the paper's first pipeline stage, reports the
   model/mechanism/state-machine diagnostics, and lints specifications
   with the recovery-soundness static analyzer.

   Exit codes: 0 success (lint: no error-severity findings), 1 lint
   found errors, 2 compile error. *)

open Cmdliner
module Compiler = Superglue.Compiler
module Codegen = Superglue.Codegen
module Machine = Superglue.Machine
module Model = Superglue.Model
module Ir = Superglue.Ir
module Diag = Superglue.Diag
module Analysis = Sg_analysis.Analysis
module Json = Sg_util.Json

(* The exit-code convention every command shares: 0 clean, 1 findings
   (error-severity diagnostics or an unbounded pair), 2 the compiler
   rejected the input. *)
let exit_ok = 0
let exit_findings = 1
let exit_compile_error = 2

let load source builtin =
  match (source, builtin) with
  | Some path, None -> Ok (Compiler.compile_file path)
  | None, Some name -> Ok (Compiler.builtin name)
  | None, None -> Error "give an interface: FILE or --builtin NAME"
  | Some _, Some _ -> Error "give exactly one of FILE or --builtin NAME"

let write_out out text =
  match out with
  | None -> print_string text
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc text);
      Printf.eprintf "wrote %s (%d LOC)\n" path (Codegen.loc text)

let file_arg =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"Interface specification (.sgidl).")

let builtin_arg =
  Arg.(
    value
    & opt (some (enum (List.map (fun n -> (n, n)) Compiler.builtin_names))) None
    & info [ "builtin" ] ~docv:"NAME"
        ~doc:"Use an embedded system interface instead of a file.")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output file (default: stdout).")

let print_diag d = Printf.eprintf "%s\n" (Diag.to_string d)

(* A single-artifact command body: load, run, map errors to exit codes.
   CLI misuse (no/both inputs) is a Cmdliner usage error. *)
let handle source builtin f =
  match load source builtin with
  | Error msg -> `Error (true, msg)
  | Ok a -> (
      match f a with
      | () -> `Ok exit_ok
      | exception Compiler.Compile_error ds ->
          List.iter print_diag ds;
          `Ok exit_compile_error)
  | exception Compiler.Compile_error ds ->
      List.iter print_diag ds;
      `Ok exit_compile_error

let compile_cmd =
  let run source builtin out =
    handle source builtin (fun a ->
        List.iter print_diag a.Compiler.a_warnings;
        write_out out (Codegen.emit a))
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Generate the OCaml client and server stub module.")
    Term.(ret (const run $ file_arg $ builtin_arg $ out_arg))

let header_cmd =
  let run source builtin out =
    handle source builtin (fun a ->
        write_out out (Compiler.emit_header a.Compiler.a_ir))
  in
  Cmd.v
    (Cmd.info "header" ~doc:"Render the plain header (SuperGlue keywords erased).")
    Term.(ret (const run $ file_arg $ builtin_arg $ out_arg))

let check_cmd =
  let run source builtin =
    handle source builtin (fun a ->
        let ir = a.Compiler.a_ir in
        Printf.printf "interface %s: %d functions, %d LOC of IDL\n"
          a.Compiler.a_name
          (List.length ir.Ir.ir_funcs)
          (Codegen.loc a.Compiler.a_source);
        Format.printf "model: %a@." Model.pp ir.Ir.ir_model;
        Printf.printf "mechanisms: %s\n" (String.concat " " (Compiler.mechanisms a));
        Printf.printf "templates included: %d of %d\n"
          (List.length (Codegen.included_templates a))
          Superglue.Templates.count;
        List.iter
          (fun st ->
            if st <> "s0" then begin
              let p = Machine.plan a.Compiler.a_machine st in
              Printf.printf "recovery %-28s walk: %s%s\n" st
                (String.concat " -> " p.Machine.pl_path)
                (match p.Machine.pl_restore with
                | [] -> ""
                | r -> "; restore: " ^ String.concat " " r)
            end)
          (Machine.states a.Compiler.a_machine);
        List.iter
          (fun d -> Printf.printf "%s\n" (Diag.to_string d))
          a.Compiler.a_warnings)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Diagnostics: model, mechanisms, recovery plans.")
    Term.(ret (const run $ file_arg $ builtin_arg))

let graph_cmd =
  let run source builtin out =
    handle source builtin (fun a ->
        write_out out (Machine.to_dot a.Compiler.a_machine))
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Render the descriptor state machine with its recovery plans as \
          Graphviz DOT (the Fig 2 diagrams).")
    Term.(ret (const run $ file_arg $ builtin_arg $ out_arg))

(* A report command over many artifacts ([lint], [bound], [taint],
   [race]): FILE... and --builtins select the artifacts, the [analyze]
   term runs the pass, and the report prints as [render] text or, with
   --json, as [to_json]. [findings] decides exit 1. A spec that does not
   compile prints its diagnostics (with --json, as a lint report) and
   exits 2. *)
let report_cmd name ~doc ~analyze ~render ~to_json ~findings =
  let files_arg =
    Arg.(
      value
      & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Interface specifications (.sgidl).")
  in
  let builtins_flag =
    Arg.(
      value & flag
      & info [ "builtins" ]
          ~doc:"Also analyze the six embedded system interfaces.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")
  in
  let print_json j = print_endline (Json.to_string j) in
  let run analyze files builtins json =
    if files = [] && not builtins then
      `Error (true, "give at least one FILE or --builtins")
    else
      match
        List.map Compiler.compile_file files
        @ if builtins then List.map Compiler.builtin Compiler.builtin_names
          else []
      with
      | artifacts ->
          let report = analyze artifacts in
          if json then print_json (to_json report)
          else print_string (render report);
          `Ok (if findings report then exit_findings else exit_ok)
      | exception Compiler.Compile_error ds ->
          if json then print_json (Analysis.report_to_json ds)
          else List.iter print_diag ds;
          `Ok exit_compile_error
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const run $ analyze $ files_arg $ builtins_flag $ json_flag))

let lint_cmd =
  report_cmd "lint"
    ~doc:
      "Run the recovery-soundness static analyzer. Exit 0 if no \
       error-severity finding, 1 if any, 2 on compile errors."
    ~analyze:(Term.const (fun a -> Analysis.lint a))
    ~render:(fun ds ->
      String.concat "" (List.map (fun d -> Diag.to_string d ^ "\n") ds)
      ^ Printf.sprintf "%d error(s), %d warning(s), %d info(s)\n"
          (Diag.count Diag.Error ds)
          (Diag.count Diag.Warning ds)
          (Diag.count Diag.Info ds))
    ~to_json:Analysis.report_to_json ~findings:Diag.has_errors

let bound_cmd =
  let module Wcr = Sg_analysis.Wcr in
  let scale_arg =
    Arg.(
      value
      & opt float 1.0
      & info [ "cost-scale" ] ~docv:"F"
          ~doc:"Scale every cost-model constant by $(docv) (sensitivity).")
  in
  let analyze scale =
    let cost = Sg_kernel.Cost.scale Sg_kernel.Cost.default scale in
    Wcr.analyze ~params:{ Wcr.default_params with Wcr.p_cost = cost }
  in
  report_cmd "bound"
    ~doc:
      "Compute static worst-case recovery-latency bounds for every \
       (crashed service, client interface) pair. Exit 0 if every pair is \
       bounded, 1 if any is unbounded, 2 on compile errors."
    ~analyze:Term.(const analyze $ scale_arg)
    ~render:Wcr.render ~to_json:Wcr.to_json
      (* unbounded pairs (a tracked interface without desc_table_cap,
         SG014) are findings, like lint errors *)
    ~findings:(fun r ->
      List.exists (fun p -> p.Wcr.p_bound_ns = None) r.Wcr.r_pairs)

let taint_cmd =
  let module Taint = Sg_analysis.Taint in
  report_cmd "taint"
    ~doc:
      "Classify every (interface edge, field) pair as masked, detected or \
       silent under value corruption, and report SG016-SG019 propagation \
       findings. Exit 0 if no finding, 1 if any, 2 on compile errors."
    ~analyze:(Term.const (fun a -> Taint.analyze a)) ~render:Taint.render
    ~to_json:Taint.report_to_json
    ~findings:(fun r -> Diag.has_errors r.Taint.t_diags)

let race_cmd =
  let module Race = Sg_analysis.Race in
  report_cmd "race"
    ~doc:
      "Classify every (recovery walk, concurrent invocation edge) pair as \
       isolated, serialized or racy over the walk's phase intervals, and \
       report SG021-SG025 interference findings. Exit 0 if no finding, 1 \
       if any, 2 on compile errors."
    ~analyze:(Term.const (fun a -> Race.analyze a)) ~render:Race.render
    ~to_json:Race.report_to_json
    ~findings:(fun r -> Diag.has_errors r.Race.r_diags)

let () =
  let info =
    Cmd.info "sgc" ~version:"1.0"
      ~doc:"SuperGlue IDL compiler for interface-driven fault recovery"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            compile_cmd;
            header_cmd;
            check_cmd;
            graph_cmd;
            lint_cmd;
            bound_cmd;
            taint_cmd;
            race_cmd;
          ]))
