(* Deterministic speculative domain pool: see pool.mli for the contract.

   Layout of the shared state:

   - [next] — the chunk queue. One atomic counter; a claim is a CAS from
     [n] to [n + 1], granted only while [n < cursor + lookahead]. Both
     the spawned workers and the consuming domain (when it has nothing
     to merge) claim from it, so the pool balances itself like a
     work-stealing deque ring with a single global tail.
   - [slots] — a fixed ring of [lookahead] result cells. Index [i]
     publishes into [slots.(i mod lookahead)]; the window invariant
     [i < cursor + lookahead] means slot [i mod lookahead] was freed by
     the consumption of [i - lookahead] before [i] could be claimed, so
     a plain atomic store never clobbers an unconsumed result.
   - [cursor] — next index to consume; written only by the consumer.
   - [stop] — set once by the consumer ([Stop], [count] reached, or an
     exception); checked by workers before every claim and exposed to
     tasks as [cancelled].

   Blocking is kept off the steady-state path: a worker touches the
   mutex only when the window is closed, and a publisher only when it
   just filled the exact slot the consumer is blocked on. *)

type decision = Continue | Stop

(* Campaign tasks are allocation-heavy (each builds a whole simulator),
   and with more domains than cores every minor collection is a
   stop-the-world rendezvous with descheduled peers. A roomier minor
   heap cuts the rendezvous frequency by an order of magnitude; 2M words
   is past the measured knee (16 MiB per domain). The minor heap is
   per-domain state, so tuning it inside the worker scopes the change to
   the pool's own domains and it dies with them — the caller's domain is
   never touched. (In OCaml 5.1 a [Gc.set] in the parent does not reach
   spawned domains, so this must run in the worker itself.) *)
let tune_gc () =
  let words = 2 * 1024 * 1024 in
  let g = Gc.get () in
  if g.Gc.minor_heap_size < words then
    Gc.set { g with Gc.minor_heap_size = words }

let run (type a) ~jobs ?count ?(lookahead = 0)
    ~(task : cancelled:(unit -> bool) -> int -> a)
    ~(consume : int -> a -> decision) () =
  let jobs = max 1 jobs in
  let lookahead = if lookahead <= 0 then max 4 (2 * jobs) else lookahead in
  let exhausted i = match count with Some n -> i >= n | None -> false in
  if exhausted 0 then ()
  else begin
    let next = Atomic.make 0 in
    let cursor = Atomic.make 0 in
    let stop = Atomic.make false in
    let slots :
        (a, exn * Printexc.raw_backtrace) result option Atomic.t array =
      Array.init lookahead (fun _ -> Atomic.make None)
    in
    let m = Mutex.create () in
    let work_cv = Condition.create () in (* workers: window reopened / stop *)
    let done_cv = Condition.create () in (* consumer: its slot was filled *)
    let cancelled () = Atomic.get stop in
    let slot i = slots.(i mod lookahead) in
    let publish i r =
      Atomic.set (slot i) (Some r);
      (* wake the consumer only if it may be blocked on exactly [i];
         [cursor] is written by the consumer before it blocks, and the
         re-check of the slot happens under [m], so this cannot be a
         lost wakeup *)
      if Atomic.get cursor = i then begin
        Mutex.lock m;
        Condition.broadcast done_cv;
        Mutex.unlock m
      end
    in
    (* claim the next index iff the pool is live and the window is open;
       [stop] is checked *before* the counter moves, so no worker starts
       a task whose result can no longer be consumed *)
    let rec try_claim () =
      if Atomic.get stop then `Stopped
      else
        let n = Atomic.get next in
        if exhausted n then `Exhausted
        else if n >= Atomic.get cursor + lookahead then `Window
        else if Atomic.compare_and_set next n (n + 1) then `Claimed n
        else try_claim ()
    in
    (* the worker's backtrace travels with its exception, so the
       re-raise in the caller's domain still names where it came from;
       backtrace recording is per-domain, so workers copy the caller's *)
    let record_backtrace = Printexc.backtrace_status () in
    let run_task i =
      publish i
        (match task ~cancelled i with
        | v -> Ok v
        | exception e -> Error (e, Printexc.get_raw_backtrace ()))
    in
    let worker () =
      tune_gc ();
      Printexc.record_backtrace record_backtrace;
      let live = ref true in
      while !live do
        match try_claim () with
        | `Claimed i -> run_task i
        | `Stopped | `Exhausted -> live := false
        | `Window ->
            Mutex.lock m;
            while
              (not (Atomic.get stop))
              && (not (exhausted (Atomic.get next)))
              && Atomic.get next >= Atomic.get cursor + lookahead
            do
              Condition.wait work_cv m
            done;
            Mutex.unlock m
      done
    in
    let spawned =
      match count with Some n -> min (jobs - 1) n | None -> jobs - 1
    in
    let domains = List.init spawned (fun _ -> Domain.spawn worker) in
    (* every exit path runs [halt] exactly once: domains are joined
       before [run] returns or re-raises, and the ring dies with the
       call — no result outlives it *)
    let halt () =
      Atomic.set stop true;
      Mutex.lock m;
      Condition.broadcast work_cv;
      Condition.broadcast done_cv;
      Mutex.unlock m;
      List.iter Domain.join domains
    in
    let rec merge () =
      let c = Atomic.get cursor in
      if exhausted c then halt ()
      else
        match Atomic.get (slot c) with
        | Some r -> begin
            Atomic.set (slot c) None;
            Atomic.set cursor (c + 1);
            (* the window just moved: wake workers that saw it closed.
               If [next < c + lookahead] nobody can be waiting — any
               waiter observed [next >= cursor' + lookahead] for some
               earlier cursor' and was re-woken at that advance *)
            if Atomic.get next >= c + lookahead then begin
              Mutex.lock m;
              Condition.broadcast work_cv;
              Mutex.unlock m
            end;
            match r with
            | Error (e, bt) ->
                halt ();
                Printexc.raise_with_backtrace e bt
            | Ok v -> (
                match consume c v with
                | Stop -> halt ()
                | Continue -> merge ()
                | exception e ->
                    let bt = Printexc.get_raw_backtrace () in
                    halt ();
                    Printexc.raise_with_backtrace e bt)
          end
        | None -> (
            (* next needed result not ready: help rather than block *)
            match try_claim () with
            | `Claimed i ->
                run_task i;
                merge ()
            | `Stopped -> halt () (* unreachable: only [halt] sets stop *)
            | `Exhausted | `Window ->
                (* both cases imply [next > c]: index [c] was claimed
                   and is in flight on some worker, which will publish
                   it and signal [done_cv] *)
                Mutex.lock m;
                while Atomic.get (slot c) = None do
                  Condition.wait done_cv m
                done;
                Mutex.unlock m;
                merge ())
    in
    merge ()
  end
