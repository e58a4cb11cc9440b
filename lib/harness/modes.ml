(* The system configurations the CLIs' --mode options accept. *)

module Sysbuild = Sg_components.Sysbuild

let all =
  [
    ("base", Sysbuild.Base);
    ("c3", Sysbuild.Stubbed Sysbuild.c3_stubset);
    ("superglue", Superglue.Stubset.mode);
    ("superglue-eager", Superglue.Stubset.mode_eager);
    ("superglue-gen", Sg_genstubs.Gen_stubset.mode);
  ]

let names = String.concat ", " (List.map fst all)

let of_name name =
  match List.assoc_opt name all with
  | Some mode -> Ok mode
  | None -> Error (`Msg (Printf.sprintf "unknown mode %s (have: %s)" name names))
