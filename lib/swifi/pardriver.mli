(** The SWIFI campaign driver (paper §V-D, Table II).

    [run ~jobs ~mode ~iface ~injections ()] injects exactly [injections]
    faults (the paper uses 500 per component): chunk [i] (seed
    [seed + i]) runs the workload on a fresh simulator with the injector
    armed for the budget still left, until the budget is met. With
    [cmon_period_ns] the C'MON latent-fault monitor is armed: loop-bound
    hangs are detected within a budget overrun plus one monitor period
    and recovered like other fail-stop faults, emptying the "other"
    column.

    [jobs = 1] is a plain sequential loop over those seeds and budgets;
    it is the reference every other [jobs] reproduces. [jobs > 1] fans
    the chunks across [jobs] domains through the deterministic
    speculative pool ({!Sg_util.Pool}): chunk seeds are grouped into
    batches sized to amortize domain hand-off over ~100 injections
    (derived from the first chunk's injection count; override with
    [batch]), each batch's results stay private to its worker until
    published with one atomic store, and worker lookahead is bounded
    relative to the merge cursor, so speculative results never pile up
    unboundedly and post-campaign waste is at most the in-flight
    batches. Each chunk builds its own simulator and sink, so chunks
    share no mutable state. The merge replays the sequential budget
    arithmetic in seed order, re-running (at most) the campaign's final
    chunk with its exact sequential budget, so the merged row — and any
    trace delivered through [on_chunk] — equals, count for count and
    byte for byte, what [jobs = 1] produces with the same parameters,
    for every [jobs], [batch], and [lookahead].

    [on_chunk] is called in merge (seed) order, once per chunk whose row
    was used, with that chunk's full event stream (every emission, as a
    subscriber sees it). Event sequence numbers and timestamps restart
    per chunk; concatenating streams for [sgtrace check] requires
    re-stamping and a ["sys-reboot"] note at each boundary (see
    [bin/campaign.ml]). Events are only collected when [on_chunk] is
    given.

    [episodes:true] turns on per-chunk recovery-episode stitching
    ({!Sg_obs.Episode}) and accumulates the episodes on the returned row
    ([r_episodes], in campaign order, chunk-local timestamps);
    merged episode lists are deterministic across [jobs] because
    discarded speculative chunks also discard their episodes.

    [on_episodes] streams each used chunk's stitched episode list in
    merge (seed) order instead: stitching is enabled, the callback sees
    exactly the lists [episodes:true] would have concatenated, but —
    unless [episodes:true] was also given — the returned row keeps
    [r_episodes = []], so a million-injection campaign can be
    bound-checked in constant memory.

    An exception from a worker chunk propagates in the calling domain
    after every spawned domain has been joined; no chunk result outlives
    the call. *)

val run :
  ?seed:int ->
  ?period_ns:int ->
  ?chunk_iters:int ->
  ?cmon_period_ns:int ->
  ?episodes:bool ->
  ?on_chunk:(seed:int -> Sg_obs.Event.t list -> unit) ->
  ?on_episodes:(seed:int -> Sg_obs.Episode.t list -> unit) ->
  ?batch:int ->
  ?lookahead:int ->
  jobs:int ->
  mode:Sg_components.Sysbuild.mode ->
  iface:string ->
  injections:int ->
  unit ->
  Campaign.row
