(** Per-window shard telemetry: records, aggregates, analyzer and Chrome
    lanes.

    The scheduler ({!Shard}) records one {!window} per synchronization
    window when telemetry is enabled on a group: per-shard events and
    simulated-time span, the bound each busy shard ran to and {e which
    shard's horizon produced it} (limiter attribution), cross-shard
    messages merged at the barrier, null (+inf) horizon advertisements,
    the inline-vs-pool dispatch decision, and per-shard monotonic wall
    time.  A {!t} aggregates windows into per-shard totals, an imbalance
    histogram, limiter-attribution counts, and a critical-path speedup
    bound (total work / sum of per-window max shard work).

    {b Determinism.}  Telemetry is a pure observer — enabling it never
    changes experiment output (byte-identity is asserted in tests and
    CI).  Wall-clock values come from {!Mono} and live only in this
    side-channel report; every other field is schedule-invariant, except
    the dispatch decision which depends on [--jobs] and therefore stays
    out of the Metrics registry.

    {b Marshal-safety.}  A [t] is plain data and checkpoints inside its
    {!Shard.t}.  Event counts and window structure survive resume
    exactly; wall fields of pre-checkpoint windows are meaningless in
    the new process (Chrome export clamps them to the origin). *)

(** {1 Limiter encoding} — values of [w_limiters] and {!limiter_counts}
    keys: a shard index [>= 0], or one of the sentinels below. *)

val limiter_idle : int
(** Shard was not busy in this window. *)

val limiter_unbounded : int
(** Busy with no finite bound (every other shard idle, no [until]). *)

val limiter_until : int
(** The driver's [until] clamp bound the shard, not a peer horizon. *)

val limiter_name : int -> string
(** Human-readable limiter label ("shard 3", "until", "unbounded"). *)

(** One synchronization window.  Arrays are indexed by shard; slots of
    non-busy shards ([w_limiters.(i) = limiter_idle]) hold zeros. *)
type window = {
  w_seq : int;  (** index of this window within its group's run *)
  w_events : int array;  (** events executed, per shard *)
  w_bounds : int array;  (** bound ran to, per shard; [max_int] = none *)
  w_limiters : int array;  (** limiter encoding, per shard *)
  w_t0 : int array;  (** shard sim clock at window entry (ps) *)
  w_t1 : int array;  (** shard sim clock at window exit (ps) *)
  w_wall0 : int array;  (** per-shard monotonic start (ns) *)
  w_wall : int array;  (** per-shard wall duration (ns) *)
  mutable w_busy : int;
  mutable w_nulls : int;  (** +inf horizon advertisements at entry *)
  mutable w_merged : int;  (** cross-shard messages merged at the barrier *)
  mutable w_pooled : bool;  (** dispatched on the pool (jobs-dependent) *)
  mutable w_start : int;  (** window monotonic start (ns) *)
  mutable w_wall_total : int;  (** window wall incl. barrier merge (ns) *)
}

type t

val default_cap : int
(** Default retained-window cap (aggregates are never capped). *)

val make : ?cap:int -> shards:int -> unit -> t

(** {1 Aggregate accessors} *)

val shards : t -> int
val windows : t -> int

val pooled_windows : t -> int
(** Windows dispatched on the pool — jobs-dependent, side-channel only. *)

val events : t -> int
(** Total events across all recorded windows (never capped). *)

val crit_events : t -> int
(** Critical path: sum over windows of the max per-shard event count. *)

val merged : t -> int
val nulls : t -> int
val wall_ns : t -> int
val barrier_ns : t -> int
val dropped_windows : t -> int
val shard_events : t -> int array
val shard_busy : t -> int array
val shard_wall_ns : t -> int array

val imbalance : t -> M3v_sim.Stats.Histogram.t
(** Per-window [max/mean] events over busy shards, in percent (100 =
    perfectly balanced); only windows with two or more busy shards. *)

val limiter_counts : t -> (int * int) list
(** [(limiter, busy-shard windows attributed)] with positive counts:
    shard indices first, then [limiter_until] / [limiter_unbounded]. *)

val speedup_bound : t -> float
(** [events / crit_events] — an upper bound on parallel speedup from
    this window structure, independent of core count. *)

val recent : t -> window list
(** Retained window records, oldest first (at most [cap]). *)

(** {1 Window construction} — called by {!Shard}; worker-domain safe in
    the ways noted. *)

val begin_window : t -> seq:int -> nulls:int -> window

val set_bound : window -> int -> bound:int -> limiter:int -> unit
(** Mark shard [i] busy with its bound and limiter (coordinator only,
    before dispatch). *)

val shard_begin : window -> int -> sim_now:int -> unit
(** Start shard [i]'s span.  Safe on a worker domain: each shard writes
    only its own slots, read back after the pool barrier. *)

val shard_end : window -> int -> sim_now:int -> events:int -> unit

val commit : t -> window -> pooled:bool -> merged:int -> unit
(** Fold the window into the aggregates and the retained ring
    (coordinator only, after the barrier merge). *)

(** {1 Merging} *)

val merge : into:t -> t -> unit
(** Sum aggregates, merge histograms, append retained windows up to
    [into]'s cap.  Raises [Invalid_argument] on shard-count mismatch. *)

val merge_groups : t list -> t list
(** Merge into one [t] per distinct shard count, first-seen order. *)

(** {1 Report} *)

val pp : Format.formatter -> t -> unit
(** The analyzer: per-shard table, imbalance quantiles, limiter
    attribution, critical-path speedup bound, wall/barrier overhead. *)

val pp_groups : Format.formatter -> t list -> unit
(** {!merge_groups} then {!pp} each; explains itself when empty. *)

(** {1 Chrome lanes} *)

val to_sink : t -> M3v_obs.Trace.sink
(** Build a trace sink with one pid ("tile") per shard: window spans on
    each busy shard's lane, window + barrier marks on the global lane.
    Timestamps are wall nanoseconds since the group's epoch, scaled so
    the viewer's microsecond axis shows real wall microseconds.
    Installs a private sink while building — call between runs only
    (installation resets run-local trace allocators). *)

val write_chrome : string -> t -> unit
