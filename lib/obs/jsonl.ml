(* JSON-lines codec for events: one flat object per line, mapped to and
   from {!Sg_util.Json} values (which own the escaping and parsing). *)

module Json = Sg_util.Json

let fields_of_kind : Event.kind -> (string * Json.t) list =
  let open Json in
  function
  | Event.Span_begin { span; client; server; fn } ->
      [
        ("span", Int span);
        ("client", Int client);
        ("server", Int server);
        ("fn", Str fn);
      ]
  | Event.Span_end { span; server; ok } ->
      [ ("span", Int span); ("server", Int server); ("ok", Bool ok) ]
  | Event.Crash { cid; detector } -> [ ("cid", Int cid); ("detector", Str detector) ]
  | Event.Reboot { cid; epoch; image_kb; cost_ns } ->
      [
        ("cid", Int cid);
        ("epoch", Int epoch);
        ("image_kb", Int image_kb);
        ("cost_ns", Int cost_ns);
      ]
  | Event.Divert { cid; victim } -> [ ("cid", Int cid); ("victim", Int victim) ]
  | Event.Upcall { cid; fn } -> [ ("cid", Int cid); ("fn", Str fn) ]
  | Event.Reflect { cid; fn } -> [ ("cid", Int cid); ("fn", Str fn) ]
  | Event.Walk_begin { client; server; iface; desc; reason } ->
      [
        ("client", Int client);
        ("server", Int server);
        ("iface", Str iface);
        ("desc", Int desc);
        ("reason", Str (Event.reason_to_string reason));
      ]
  | Event.Walk_end { client; server; ok } ->
      [ ("client", Int client); ("server", Int server); ("ok", Bool ok) ]
  | Event.Recover_begin { client; server; iface } ->
      [ ("client", Int client); ("server", Int server); ("iface", Str iface) ]
  | Event.Recover_end { client; server } ->
      [ ("client", Int client); ("server", Int server) ]
  | Event.Storage_op { op; space; id } ->
      [ ("op", Str op); ("space", Str space); ("id", Int id) ]
  | Event.Inject { cid; fn; reg; bit; outcome } ->
      [
        ("cid", Int cid);
        ("fn", Str fn);
        ("reg", Str reg);
        ("bit", Int bit);
        ("outcome", Str outcome);
      ]
  | Event.Http { cid; path; status } ->
      [ ("cid", Int cid); ("path", Str path); ("status", Int status) ]
  | Event.Http_req { cid; client; arrival_ns; start_ns; finish_ns; status; outcome }
    ->
      [
        ("cid", Int cid);
        ("client", Int client);
        ("arrival_ns", Int arrival_ns);
        ("start_ns", Int start_ns);
        ("finish_ns", Int finish_ns);
        ("status", Int status);
        ("outcome", Str outcome);
      ]
  | Event.Perturb { iface; fn; action; in_walk } ->
      [
        ("iface", Str iface);
        ("fn", Str fn);
        ("action", Str action);
        ("in_walk", Bool in_walk);
      ]
  | Event.Note { name; data } -> [ ("name", Str name); ("data", Str data) ]

let to_string (e : Event.t) =
  Json.to_string
    (Json.Obj
       (("seq", Json.Int e.Event.seq)
       :: ("at_ns", Json.Int e.Event.at_ns)
       :: ("tid", Json.Int e.Event.tid)
       :: ("kind", Json.Str (Event.kind_name e.Event.kind))
       :: fields_of_kind e.Event.kind))

(* {2 Parsing} *)

let of_string line =
  let j = Json.parse line in
  let int k = Json.int_member k j
  and str k = Json.str_member k j
  and bool k = Json.bool_member k j in
  let kind =
    match str "kind" with
    | "span_begin" ->
        Event.Span_begin
          {
            span = int "span";
            client = int "client";
            server = int "server";
            fn = str "fn";
          }
    | "span_end" ->
        Event.Span_end
          { span = int "span"; server = int "server"; ok = bool "ok" }
    | "crash" ->
        Event.Crash { cid = int "cid"; detector = str "detector" }
    | "reboot" ->
        Event.Reboot
          {
            cid = int "cid";
            epoch = int "epoch";
            image_kb = int "image_kb";
            cost_ns = int "cost_ns";
          }
    | "divert" -> Event.Divert { cid = int "cid"; victim = int "victim" }
    | "upcall" -> Event.Upcall { cid = int "cid"; fn = str "fn" }
    | "reflect" -> Event.Reflect { cid = int "cid"; fn = str "fn" }
    | "walk_begin" ->
        let reason_s = str "reason" in
        let reason =
          match Event.reason_of_string reason_s with
          | Some r -> r
          | None -> Json.fail "unknown walk reason %s" reason_s
        in
        Event.Walk_begin
          {
            client = int "client";
            server = int "server";
            iface = str "iface";
            desc = int "desc";
            reason;
          }
    | "walk_end" ->
        Event.Walk_end
          { client = int "client"; server = int "server"; ok = bool "ok" }
    | "recover_begin" ->
        Event.Recover_begin
          { client = int "client"; server = int "server"; iface = str "iface" }
    | "recover_end" ->
        Event.Recover_end { client = int "client"; server = int "server" }
    | "storage_op" ->
        Event.Storage_op
          { op = str "op"; space = str "space"; id = int "id" }
    | "inject" ->
        Event.Inject
          {
            cid = int "cid";
            fn = str "fn";
            reg = str "reg";
            bit = int "bit";
            outcome = str "outcome";
          }
    | "http" ->
        Event.Http
          { cid = int "cid"; path = str "path"; status = int "status" }
    | "http_req" ->
        Event.Http_req
          {
            cid = int "cid";
            client = int "client";
            arrival_ns = int "arrival_ns";
            start_ns = int "start_ns";
            finish_ns = int "finish_ns";
            status = int "status";
            outcome = str "outcome";
          }
    | "perturb" ->
        Event.Perturb
          {
            iface = str "iface";
            fn = str "fn";
            action = str "action";
            in_walk = bool "in_walk";
          }
    | "note" -> Event.Note { name = str "name"; data = str "data" }
    | k -> Json.fail "unknown event kind %s" k
  in
  {
    Event.seq = int "seq";
    at_ns = int "at_ns";
    tid = int "tid";
    kind;
  }

let dump oc events =
  List.iter
    (fun e ->
      output_string oc (to_string e);
      output_char oc '\n')
    events

let load ic =
  let rec go n acc =
    match input_line ic with
    | line ->
        let acc =
          if String.trim line = "" then acc
          else
            match of_string line with
            | e -> e :: acc
            | exception Json.Parse_error m -> Json.fail "line %d: %s" n m
        in
        go (n + 1) acc
    | exception End_of_file -> List.rev acc
  in
  go 1 []
