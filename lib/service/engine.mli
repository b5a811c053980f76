(** The service's request processor, socket-free: decode, lease warm
    state, run the mapper, encode. {!Server} workers drive this over
    the Unix socket; tests and the bench harness drive it directly
    (the [serve_warm_ab] cell measures warm-vs-cold through the same
    path the daemon uses). Thread- and domain-safe: all shared state
    lives in the {!Cache}. *)

type t

val create :
  ?cache_capacity:int -> ?default_knobs:Mm_lp.Config.t -> unit -> t
(** Default capacity 64 boards; [0] disables warm-start caching.
    [?default_knobs] backs requests that carry no [knobs] field. *)

val cache : t -> Cache.t
(** The engine's warm cache — exposed so the server can persist it
    across restarts ({!Cache.save} / {!Cache.load}). *)

val cache_stats : t -> Cache.stats

(** {2 Batch counters}

    Cumulative coalescing instrumentation, reported by the [stats]
    wire operation: [batches_formed] counts drained groups of two or
    more requests, [coalesced_requests] the members beyond each
    group's first, [batch_warm_hits] the members that rode warm state
    trained inside their own batch (same full fingerprint as an
    earlier member). *)

type batch_stats = {
  batches_formed : int;
  coalesced_requests : int;
  batch_warm_hits : int;
}

val batch_stats : t -> batch_stats
val batch_stats_to_json : batch_stats -> Mm_obs.Json.t

(** {2 Request-level latency histograms}

    One [timing] per worker (histograms are single-writer, like trace
    sinks). [queue_wait] is recorded by the server at dequeue,
    [solve]/[encode] by {!handle_json}/{!handle_line};
    {!emit_timing} flushes all three to the worker's sink after the
    last request, which is what [mmap trace-summary] turns into
    p50/p99 service latency. *)

type timing = {
  queue_wait : Mm_obs.Trace.hist;
  solve : Mm_obs.Trace.hist;
  encode : Mm_obs.Trace.hist;
  batch_size : Mm_obs.Trace.hist;
      (** members per drained batch (a size histogram, not a latency —
          [mmap trace-summary] renders it in its own table) *)
}

val timing : unit -> timing
val emit_timing : Mm_obs.Trace.sink -> timing -> unit

val handle : t -> ?snk:Mm_obs.Trace.sink -> Request.t -> Request.response
(** Process one decoded request: acquire a warm-cache lease
    ({!Request.fingerprint} key), run {!Mm_mapping.Mapper.run} with the
    leased state and the request's knobs (tracing disabled inside the
    mapper — the solver's root sink is single-writer and the service is
    not), release the lease, classify the outcome. Records
    [cache_hit]/[cache_miss] counters and a ["request"] span on
    [snk]. Never raises: mapper exceptions become [Server_error]
    responses. *)

(** {2 Coalesced batches} *)

type member = {
  req : Request.t;  (** decoded at admission by the server's reader *)
  started : unit -> unit;
      (** invoked when this member's solve begins — the server records
          the member's queue wait here *)
  respond : Request.response -> unit;
      (** invoked with the member's response as soon as it completes —
          responses stream out per member, not at batch end *)
}

val run_batch : t -> ?snk:Mm_obs.Trace.sink -> member list -> unit
(** Process a drained batch (all members share a {!Request.batch_key}).
    A single-member batch is exactly {!handle} — byte-identical
    responses. Larger batches are sub-grouped by full
    {!Request.fingerprint} in arrival order; each group takes one cache
    lease, its first member trains the warm state (root basis +
    pseudocosts) and the rest consume it ([cache_hit = true], counted
    as [batch_warm_hits]). Every member gets exactly one [started] and
    one [respond] call, in arrival order within its group; a member
    failure becomes that member's error response and the batch
    continues. Records the same [cache_hit]/[cache_miss]/["request"]
    telemetry as {!handle} plus
    [batches_formed]/[coalesced_requests]/[batch_warm_hits]. *)

val handle_json :
  t -> ?timing:timing -> ?snk:Mm_obs.Trace.sink -> Mm_obs.Json.t ->
  Request.response
(** Decode-then-{!handle}; undecodable requests become [Bad_request]
    responses (echoing the [id] field when one is salvageable). *)

val handle_line :
  t -> ?timing:timing -> ?snk:Mm_obs.Trace.sink -> string -> string
(** One wire line in, one wire line out ([handle_json] composed with
    the response codec). *)
