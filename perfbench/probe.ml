(* A frozen reference workload that measures the host, not the program.

   On a shared host the speed of the memory system moves in phases that
   last from seconds to minutes, and the program's throughput moves with
   it by up to 1.5x. A fixed integer loop does not see these phases; an
   allocating, pointer-chasing loop does. This is such a loop: balanced
   map inserts and short-lived lists, the shape of the simulator's own
   allocation. It lives in the benchmark, so a change to the program
   cannot make it faster or slower, and it runs with its own minor heap
   size, so a change to the program's GC settings cannot either. *)

module IntMap = Map.Make (Int)

(* one run's time on the reference host (2 cores of a shared KVM guest
   on a Xeon, OCaml 5.1.1) when the benchmark was defined; it only sets
   the scale of times given at the reference host's speed *)
let reference_ns = 35e6

(* the minor heap the shipped drivers run with ([Sg_util.Pool.tune_gc]),
   fixed here *)
let minor_words = 2 * 1024 * 1024

let work () =
  let acc = ref 0 in
  for k = 1 to 10 do
    let m = ref IntMap.empty in
    for i = 1 to 5_000 do
      m := IntMap.add (((i * 7_919) + k) land 0xffff) i !m
    done;
    acc := !acc + IntMap.cardinal !m;
    let l = List.init 20_000 (fun i -> (i, string_of_int i)) in
    acc := !acc + List.length (List.filter (fun (i, _) -> i land 1 = 0) l)
  done;
  !acc

(* mean host ns of one run of [work], over as many runs as take
   [min_ns] (at least one), from an empty minor heap *)
let run_ns ~min_ns =
  let g = Gc.get () in
  let own = g.Gc.minor_heap_size <> minor_words in
  if own then Gc.set { g with Gc.minor_heap_size = minor_words } else Gc.minor ();
  let t0 = Span.now_ns () in
  let rec go n =
    ignore (Sys.opaque_identity (work ()));
    let ns = Span.now_ns () - t0 in
    if ns < min_ns then go (n + 1) else float_of_int ns /. float_of_int n
  in
  let ns = go 1 in
  if own then Gc.set g;
  ns
