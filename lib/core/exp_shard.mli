(** Partitioned-parallel scaling experiment: a 64-1024-tile clustered
    token-chain workload on the conservative-lookahead sharded scheduler
    ({!M3v_par.Shard}).

    Tiles form clusters of 16 (islands of a hierarchical NoC: 25 ns
    intra-cluster, 72.5 ns inter-cluster); shards are contiguous blocks of
    whole clusters, so every cross-shard message is inter-cluster and the
    scheduler's lookahead is the full inter-cluster minimum latency.

    Every point runs {e twice} — shards = 1 sequentially, then shards = K
    on the pool — and compares makespan, checksum and event count, so the
    printed report itself asserts the partitioning changed nothing.
    Stdout is byte-identical across shard and job counts; wall-clock
    timings and scheduler counters go to stderr via
    {!M3v_par.Par.progress}. *)

type point = {
  p_tiles : int;
  p_clusters : int;
  p_shards : int;  (** effective shard count (clamped to cluster count) *)
  p_chains : int;
  p_hops : int;
  p_events : int;
  p_makespan : M3v_sim.Time.t;
  p_checksum : int;
  p_match : bool;  (** sharded run identical to sequential run *)
  p_wall_seq : float;  (** wall seconds, sequential reference run *)
  p_wall_par : float;  (** wall seconds, sharded run on the pool *)
  p_telemetry : M3v_par.Telemetry.t option;
      (** the sharded run's telemetry, when enabled and [p_shards > 1] *)
}

type result = { points : point list; jobs : int }

(** [Error reason] unless every tile count is at least 1. *)
val validate : tile_counts:int list -> (unit, string) Stdlib.result

(** [run ~pool ~shards ~tile_counts ()] sweeps the tile counts.
    [chains_per_tile] (default 4) and [hops] (default 32) size the
    workload; [weight] (default 512) is the rounds of deterministic hash
    churn per served hop — the CPU weight of one event.  [telemetry] is
    passed to every {!run_point}.  Raises [Invalid_argument] with
    {!validate}'s reason on bad input. *)
val run :
  ?pool:M3v_par.Par.Pool.t ->
  ?telemetry:bool ->
  ?shards:int ->
  ?chains_per_tile:int ->
  ?hops:int ->
  ?weight:int ->
  ?seed:int ->
  ?tile_counts:int list ->
  unit ->
  result

(** One sweep point (exposed for tests and the bench harness).
    [progress] (default [true]) prints the wall-clock/speedup line to
    stderr; benchmarks that call this in a hot loop pass [false].
    [telemetry] (default [false]) enables per-window telemetry on the
    sharded run — a pure observer, so the point's results are unchanged
    (asserted by tests); the bench harness uses it to price recording
    overhead.  The point carries it in [p_telemetry] unless the run was
    clamped to one shard. *)
val run_point :
  ?progress:bool ->
  ?telemetry:bool ->
  pool:M3v_par.Par.Pool.t ->
  tiles:int ->
  shards:int ->
  chains_per_tile:int ->
  hops:int ->
  weight:int ->
  seed:int ->
  unit ->
  point

val print : result -> unit

(** {1 shard-report}: one sharded run with telemetry enabled, analyzed
    (per-shard imbalance, limiter attribution, critical-path speedup
    bound).  No sequential reference run — the speedup bound comes from
    the telemetry critical path. *)

type run_result = {
  r_makespan : M3v_sim.Time.t;
  r_checksum : int;
  r_events : int;
  r_stats : M3v_par.Shard.stats;
}

type report = {
  rep_tiles : int;
  rep_shards : int;  (** effective shard count (clamped to clusters) *)
  rep_jobs : int;
  rep_result : run_result;
  rep_wall : float;
  rep_telemetry : M3v_par.Telemetry.t;
}

val report :
  ?pool:M3v_par.Par.Pool.t ->
  ?tiles:int ->
  ?shards:int ->
  ?chains_per_tile:int ->
  ?hops:int ->
  ?weight:int ->
  ?seed:int ->
  ?cap:int ->
  unit ->
  report

(** Print the run header to stdout, then the {!M3v_par.Telemetry.pp}
    analyzer tables.  Simulated results are deterministic; wall-clock
    fields are not (they live only in this report). *)
val print_report : report -> unit
