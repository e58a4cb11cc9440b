(* Host-time spans that the benchmark records around its own calls
   into the program's layers; nothing inside lib/ is instrumented.
   Spans are kept in memory until the run reads them. Each span holds
   its name, start and end on the monotonic clock, the span that was
   open when it began (-1 at top level), and the calling domain's GC
   counters across it. *)

type t = {
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  stop_ns : int;
  minor_words : float;
  major_collections : int;
}

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []

let record name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let g0 = Gc.quick_stat () in
  let start_ns = now_ns () in
  let finish () =
    let stop_ns = now_ns () in
    let g1 = Gc.quick_stat () in
    open_ids := List.tl !open_ids;
    recorded :=
      {
        id;
        parent;
        name;
        start_ns;
        stop_ns;
        minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: !recorded
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* every span recorded since the last [take], oldest first *)
let take () =
  let s = List.rev !recorded in
  recorded := [];
  s

let duration s = s.stop_ns - s.start_ns
let named name spans = List.filter (fun s -> s.name = name) spans
let durations name spans = List.map duration (named name spans)
let total_ns name spans = List.fold_left ( + ) 0 (durations name spans)

let total_words name spans =
  List.fold_left (fun a s -> a +. s.minor_words) 0.0 (named name spans)

(* wall time covered by top-level spans *)
let covered_ns spans =
  List.fold_left
    (fun a s -> if s.parent < 0 then a + duration s else a)
    0 spans
