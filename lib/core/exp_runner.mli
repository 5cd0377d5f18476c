(** Entry points used by the CLI and the benchmark harness: run an
    experiment with paper-default parameters (pass [runs = 0] or
    [rounds <= 0] for the default) and print the table/figure.

    When [?jobs] is given (CLI [--jobs], or the [M3V_JOBS] environment
    variable via the default), the experiment's independent units — bars,
    sweep points, seeds — fan out over a {!M3v_par.Par} Domain pool of
    that size.  Results are always merged in task-submission order, so
    parallel and sequential runs print byte-identical output.  Under a
    trace sink or an ambient fault plan the pool runs every task inline
    on the calling domain ({!M3v_par.Par}): both are domain-local and
    cannot follow tasks onto worker domains.

    When [?trace] names a file, the experiment runs with a tracing sink
    installed: on completion a Chrome trace-event JSON file is written
    there and latency percentiles plus a per-tile event summary are
    printed (see {!M3v_obs}).

    When [?metrics] names a file, the experiment runs with a metrics
    registry installed: counters/gauges/histograms (credit stalls, TLB
    miss rate, receive-buffer occupancy, NoC link utilization, ...) are
    exported there as JSON and printed as text tables.  Unlike a trace
    sink, a registry does not keep tasks inline — the pool shards it per
    task and merges deterministically, so [--jobs 4] output is
    byte-identical to [--jobs 1].

    When [?faults] names a {!M3v_fault.Fault.parse}-able spec (e.g.
    ["drop=0.01,dup=0.005,crash=2"]), the experiment runs under a
    deterministic fault plan seeded with [fault_seed] and the injection
    tally is printed at the end. *)

(** One paper figure: a row of {!figures}. *)
type figure = {
  name : string;  (** CLI subcommand and [profile] argument *)
  doc : string;  (** one-line CLI description *)
  count : [ `Rounds | `Runs ];  (** the CLI flag that sizes the run *)
  run : M3v_par.Par.Pool.t -> int -> unit -> unit;
      (** [run pool n] runs the experiment ([n <= 0] picks its default
          size) and returns the printer of its table. *)
}

(** fig6, fig7, fig8, fig9, voice and fig10, in the paper's evaluation
    order.  The CLI, {!profile} and {!all} all read this table. *)
val figures : figure list

(** [run_figure fig n] runs one figure of size [n] and prints it. *)
val run_figure :
  ?trace:string -> ?metrics:string -> ?faults:string -> ?fault_seed:int ->
  ?jobs:int -> figure -> int -> unit

(** Fan-in ablation ({!Exp_fanin}): N senders -> 1 server throughput,
    shared MPMC receive endpoint vs per-sender endpoints.  [msgs <= 0]
    picks the default per-sender message count; an empty [senders] list
    picks the default sweep (4, 16, 64). *)
val fanin :
  ?trace:string -> ?metrics:string -> ?faults:string -> ?fault_seed:int ->
  ?jobs:int -> msgs:int -> senders:int list -> unit -> unit

(** Load harness ({!Exp_load}): client fleets at swept offered load over
    net + m3fs + the key-value service, with SLO tables, knee detection
    and bottleneck attribution.  Steps fan out over the pool; output is
    byte-identical across [--jobs] settings. *)
val load :
  ?trace:string -> ?metrics:string -> ?faults:string -> ?fault_seed:int ->
  ?jobs:int -> cfg:Exp_load.config -> unit -> unit

(** Live-migration ablation ({!Exp_migrate}): downtime and exactly-once
    delivery vs message rate, swept clean and under a [mig_abort] fault
    plan.  [rounds] <= 0 and [rates = []] pick the defaults. *)
val migrate :
  ?trace:string -> ?metrics:string -> ?jobs:int -> ?seed:int ->
  rounds:int -> rates:int list -> unit -> unit

(** Chaos soak ({!Exp_chaos}): fs + kv workloads on m3fs under fault
    injection, exercising DTU retransmit, the TileMux watchdog,
    controller crash recovery and client RPC deadlines.  [faults]
    defaults to {!Exp_chaos.default_spec}; [rounds]/[ops] <= 0 pick the
    experiment defaults.  [seeds] > 1 soaks that many consecutive seeds
    starting at [fault_seed], fanned out over the pool.

    [checkpoint_every_ms > 0] checkpoints the whole simulator every that
    many simulated milliseconds to [checkpoint_file]; [stop_after > 0]
    abandons the run after the [n]-th checkpoint (report suppressed —
    resume to finish); [resume:file] continues a checkpointed run instead
    of starting one; a missing, truncated or foreign file is bad input
    (one-line error, exit 2).  A resumed run's report is byte-identical
    to an uninterrupted run's.  Checkpointing is single-seed and incompatible
    with [trace]. *)
val chaos :
  ?trace:string -> ?faults:string -> ?fault_seed:int -> ?jobs:int ->
  ?seeds:int -> ?checkpoint_every_ms:int ->
  ?checkpoint_file:string -> ?stop_after:int -> ?resume:string ->
  rounds:int -> ops:int -> unit -> unit

val table1 : ?trace:string -> unit -> unit
val complexity : unit -> unit

(** Ablation studies for the design decisions (extent cap, TLB size,
    topology, M3x endpoint state). *)
val ablations : ?trace:string -> ?jobs:int -> unit -> unit

(** Critical-path profiler: run the {!figures} row named [exp] (["fig6"]
    default) sequentially under a trace sink, then
    decompose each message flow's end-to-end latency into paper-aligned
    segments (sender command, NoC transit, mux scheduling delay,
    activity-switch cost, buffer wait, server compute, reply) with
    p50/p99 per segment.  Segments sum exactly (in simulated picoseconds)
    to the end-to-end latency.  [trace] additionally dumps the Chrome
    trace, [folded] a flamegraph-style folded-stack file of simulated-time
    spans, [metrics] the metrics registry JSON.  [rounds]/[runs] <= 0
    pick the experiment defaults. *)
val profile :
  ?exp:string -> ?trace:string -> ?folded:string -> ?metrics:string ->
  rounds:int -> runs:int -> unit -> unit

(** Everything, in the paper's evaluation order.  Whole experiments run as
    parallel tasks (and fan out internally); printing happens on the main
    domain in evaluation order. *)
val all : ?jobs:int -> unit -> unit
