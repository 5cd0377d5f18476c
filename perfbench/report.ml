(* What the benchmark reports: the end-to-end and per-layer metric
   catalogues, which BENCHMARK.json lists too, and the JSON result line. *)

(* Name and unit of each end-to-end metric, measured with tracing off. *)
let end_to_end =
  [
    ("wall_s", "s");
    ("setup_s", "s");
    ("events_per_s", "1/s");
    ("alloc_words_per_event", "words");
    ("peak_heap_mb", "MB");
    ("passed_frac", "ratio");
  ]

(* Each layer's metrics, the end-to-end metric they should move, and the
   workloads they are most and least exercised on. *)
type layer = {
  layer : string;
  moves : string;
  most : string;
  least : string;
  metrics : (string * string) list;  (** name, unit *)
}

let layers =
  [
    {
      layer = "core";
      moves = "setup_s, peak_heap_mb, wall_s";
      most = "ctxsw_scale";
      least = "kv_openloop";
      metrics =
        [
          ("core.create_s", "s");
          ("core.create_major_words", "words");
          ("core.wire_s", "s");
          ("core.boot_s", "s");
          ("core.run_s", "s");
          ("core.run_minor_words", "words");
          ("core.run_major_words", "words");
          ("core.probe_create_s", "s");
          ("core.probe_create_words", "words");
          ("core.probe_create_fpga_s", "s");
          ("core.probe_create_fpga_words", "words");
        ];
    };
    {
      layer = "gc";
      moves = "wall_s, peak_heap_mb";
      most = "ycsb_cloud";
      least = "kv_openloop";
      metrics =
        [ ("gc.minor_collections", "count"); ("gc.major_collections", "count") ];
    };
    {
      layer = "sim";
      moves = "events_per_s";
      most = "kv_openloop";
      least = "ycsb_cloud";
      metrics =
        [
          ("sim.events", "count");
          ("sim.simulated_s", "s");
          ("sim.queue_depth_max", "count");
          ("sim.probe_queue_ns", "ns");
          ("sim.probe_queue_words", "words");
        ];
    };
    {
      layer = "noc";
      moves = "events_per_s";
      most = "ctxsw_scale (M3x)";
      least = "ycsb_cloud";
      metrics =
        [
          ("noc.packets", "count");
          ("noc.payload_bytes", "bytes");
          ("noc.link_busy_ps", "ps");
          ("noc.probe_send_ns", "ns");
          ("noc.probe_send_words", "words");
        ];
    };
    {
      layer = "dtu";
      moves = "alloc_words_per_event, events_per_s";
      most = "kv_openloop, ctxsw_scale";
      least = "ycsb_cloud";
      metrics =
        [
          ("dtu.sends", "count");
          ("dtu.replies", "count");
          ("dtu.fetches", "count");
          ("dtu.acks", "count");
          ("dtu.core_reqs", "count");
          ("dtu.credit_stalls", "count");
          ("dtu.delivery_failures", "count");
          ("dtu.delivered_ratio", "ratio");
          ("dtu.mpmc_deliveries", "count");
          ("dtu.tlb_hit_ratio", "ratio");
          ("dtu.dma_bytes", "bytes");
          ("dtu.probe_rpc_ns", "ns");
          ("dtu.probe_rpc_words", "words");
        ];
    };
    {
      layer = "dram";
      moves = "wall_s";
      most = "ycsb_cloud";
      least = "ctxsw_scale";
      metrics =
        [
          ("dram.bytes_read", "bytes");
          ("dram.bytes_written", "bytes");
          ("dram.probe_read_ns_per_kib", "ns");
          ("dram.probe_read_words_per_kib", "words");
          ("dram.probe_read_into_ns_per_kib", "ns");
          ("dram.probe_read_into_words_per_kib", "words");
        ];
    };
    {
      layer = "mux";
      moves = "events_per_s, alloc_words_per_event";
      most = "ctxsw_scale (M3v), ycsb_cloud shared";
      least = "kv_openloop";
      metrics =
        [
          ("mux.ctx_switches", "count");
          ("mux.busy_ps", "ps");
          ("mux.preempts", "count");
        ];
    };
    {
      layer = "kernel";
      moves = "wall_s";
      most = "ctxsw_scale (M3x)";
      least = "ycsb_cloud, kv_openloop";
      metrics =
        [
          ("kernel.syscalls", "count");
          ("kernel.mx_switches", "count");
          ("kernel.mx_forwards", "count");
          ("kernel.busy_ps", "ps");
        ];
    };
    {
      layer = "apps";
      moves = "none: simulated results, equal across host-side changes";
      most = "all";
      least = "-";
      metrics =
        [
          ("apps.player_runs", "count");
          ("apps.ycsb_ops", "count");
          ("load.scheduled", "count");
          ("load.completed", "count");
          ("load.errors", "count");
          ("load.goodput_ratio", "ratio");
        ];
    };
    {
      layer = "trace";
      moves = "none: traced over untraced wall time";
      most = "-";
      least = "-";
      metrics = [ ("trace_overhead", "ratio") ];
    };
  ]

let json_line ~correct ~attempted ~failed metrics =
  let metric (name, unit_, v) =
    if not (Float.is_finite v) then failwith ("metric " ^ name ^ " is not finite");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " (List.map metric metrics))
