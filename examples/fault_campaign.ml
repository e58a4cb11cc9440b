(* A miniature of the paper's Table II campaign: inject register
   bit-flips into two system services while their workloads run, and
   classify every outcome.

     dune exec examples/fault_campaign.exe [injections]
*)

module Campaign = Sg_swifi.Campaign
module Pardriver = Sg_swifi.Pardriver

let () =
  let injections =
    if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 120
  in
  Printf.printf
    "injecting %d single-bit register faults into each service\n\
     (fail-stop SEU model; every detected fault drives a micro-reboot\n\
     and an interface-driven recovery)\n\n"
    injections;
  List.iter
    (fun iface ->
      let row =
        Pardriver.run ~jobs:1 ~mode:Superglue.Stubset.mode ~iface ~injections ()
      in
      Format.printf "%a@." Campaign.pp_row row)
    [ "sched"; "fs"; "lock" ];
  print_newline ();
  print_endline
    "run `dune exec bench/main.exe -- table2` for the full 500-fault\n\
     campaign over all six services, printed beside the paper's Table II."
