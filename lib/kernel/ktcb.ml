type tid = int

type tstate =
  | Runnable
  | Blocked of { in_component : int }
  | Sleeping of { until_ns : int; in_component : int }
  | Exited

type tcb = {
  tid : tid;
  name : string;
  mutable prio : int;
  mutable state : tstate;
  regs : Regfile.t;
  mutable stack : int list;
  mutable divert : int option;
}

type t = {
  mutable next_tid : int;
  table : (tid, tcb) Hashtbl.t;
  mutable order : tcb array;
      (* threads in spawn (= ascending tid) order, in [0, n); threads are
         never removed, so this is maintained by appending — no per-query
         fold-and-sort *)
  mutable n : int;
}

let create () = { next_tid = 1; table = Hashtbl.create 32; order = [||]; n = 0 }

let spawn t ~name ~prio ~home =
  let tid = t.next_tid in
  t.next_tid <- tid + 1;
  let tcb =
    {
      tid;
      name;
      prio;
      state = Runnable;
      regs = Regfile.create ();
      stack = [ home ];
      divert = None;
    }
  in
  Hashtbl.replace t.table tid tcb;
  if t.n = Array.length t.order then begin
    let cap = max 16 (2 * t.n) in
    let order = Array.make cap tcb in
    Array.blit t.order 0 order 0 t.n;
    t.order <- order
  end;
  t.order.(t.n) <- tcb;
  t.n <- t.n + 1;
  tcb

let find t tid = Hashtbl.find_opt t.table tid

(* collect matching threads in tid order without an intermediate list *)
let filter_threads t p =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    let tcb = t.order.(i) in
    if p tcb then acc := tcb :: !acc
  done;
  !acc

let all t = filter_threads t (fun _ -> true)

let enter_component tcb cid = tcb.stack <- cid :: tcb.stack

let leave_component tcb =
  match tcb.stack with
  | [] -> invalid_arg "Ktcb.leave_component: empty invocation stack"
  | _ :: rest -> tcb.stack <- rest

let current_component tcb =
  match tcb.stack with [] -> None | cid :: _ -> Some cid

let in_stack tcb cid = List.mem cid tcb.stack

let threads_inside t cid =
  filter_threads t (fun tcb -> tcb.state <> Exited && in_stack tcb cid)
