(* Measurement from outside the simulator.

   A workload builds its simulations through the public [System] /
   [Services] / [Linux_sim] functions and wraps each call in a phase span
   (create, wire, boot, run).  A span records host time and the GC's word
   and collection counters around the call.  After each run the harness
   reads the simulator's public stats accessors into per-layer counts.
   Nothing here is compiled into lib/: every number is taken at the API
   boundary the workloads cross. *)

module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Mono = M3v_par.Mono
module Platform = M3v_tile.Platform
module Noc = M3v_noc.Noc
module Dtu = M3v_dtu.Dtu
module Dram = M3v_dtu.Dram
module Runtime = M3v_mux.Runtime
module Controller = M3v_kernel.Controller
module Counter = M3v_sim.Stats.Counter
module System = M3v.System

type phase = Create | Wire | Boot | Run

let phase_name = function
  | Create -> "create"
  | Wire -> "wire"
  | Boot -> "boot"
  | Run -> "run"

type gc = {
  minor_words : float;
  major_words : float;
  minor_gcs : int;
  major_gcs : int;
}

(* Word counts come from [Gc.counters], which is exact at any point;
   [Gc.quick_stat] refreshes them only at minor collections. *)
let gc_now () =
  let minor_words, _, major_words = Gc.counters () in
  let s = Gc.quick_stat () in
  {
    minor_words;
    major_words;
    minor_gcs = s.Gc.minor_collections;
    major_gcs = s.Gc.major_collections;
  }

let gc_diff a b =
  {
    minor_words = b.minor_words -. a.minor_words;
    major_words = b.major_words -. a.major_words;
    minor_gcs = b.minor_gcs - a.minor_gcs;
    major_gcs = b.major_gcs - a.major_gcs;
  }

type span = {
  sim : int;  (** one id per simulation; shared by its four phases *)
  group : string;  (** the variant or configuration the simulation ran *)
  phase : phase;
  start_ns : Int64.t;
  dur_s : float;  (** wall time *)
  cpu_s : float;  (** process CPU time, user + system *)
  gc : gc;
}

(* Process CPU seconds.  [Unix.times] reads getrusage, whose user + system
   sum has microsecond resolution.  Unlike wall time it excludes time the
   host gave the CPU to someone else. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The result of one simulation: [result] is the canonical text of its
   simulated outputs (it feeds the digest), [problems] the output checks
   it failed. *)
type outcome = { label : string; result : string; problems : string list }

(* One repeat of a workload. *)
type t = {
  traced : bool;
  mutable next_sim : int;
  mutable spans : span list;  (** newest first *)
  mutable outcomes : outcome list;  (** newest first *)
  mutable events : int;
  counts : (string, float) Hashtbl.t;  (** per-layer counts, summed *)
}

let create ~traced =
  {
    traced;
    next_sim = 0;
    spans = [];
    outcomes = [];
    events = 0;
    counts = Hashtbl.create 64;
  }

let add h name v =
  let old = Option.value ~default:0.0 (Hashtbl.find_opt h.counts name) in
  Hashtbl.replace h.counts name (old +. v)

let add_int h name v = add h name (float_of_int v)

let raise_to h name v =
  match Hashtbl.find_opt h.counts name with
  | Some old when old >= v -> ()
  | _ -> Hashtbl.replace h.counts name v

let count h name = Option.value ~default:0.0 (Hashtbl.find_opt h.counts name)

type sim = { h : t; id : int; group : string }

let sim h ~group =
  h.next_sim <- h.next_sim + 1;
  { h; id = h.next_sim; group }

let span s phase f =
  let g0 = gc_now () in
  let c0 = cpu_now () in
  let t0 = Mono.now_ns () in
  let r = f () in
  let dur_s = Mono.elapsed_s ~since:t0 in
  let cpu_s = cpu_now () -. c0 in
  let gc = gc_diff g0 (gc_now ()) in
  s.h.spans <-
    { sim = s.id; group = s.group; phase; start_ns = t0; dur_s; cpu_s; gc }
    :: s.h.spans;
  r

let outcome h ~label ~result problems =
  h.outcomes <- { label; result; problems } :: h.outcomes

(* [guard h ~label f] runs one simulation; an exception becomes a failed
   outcome instead of ending the repeat. *)
let guard h ~label f =
  try f ()
  with e -> outcome h ~label ~result:"raised" [ Printexc.to_string e ]

(* Queue depth is sampled by the engine's observer every 1024 events.
   Only the traced run installs it; it replaces the metrics sampler that
   [System.create] attaches when a registry is on, so registry time
   series are not sampled, while its counters still are. *)
let observe_queue s eng =
  if s.h.traced then
    Engine.set_observer eng
      (Some
         (fun _now pending ->
           raise_to s.h "sim.queue_depth_max" (float_of_int pending)))

let finish_engine s eng =
  s.h.events <- s.h.events + Engine.events_processed eng;
  if s.h.traced then begin
    add_int s.h "sim.events" (Engine.events_processed eng);
    add s.h "sim.simulated_s" (Time.to_s (Engine.now eng))
  end

let run_engine s eng =
  observe_queue s eng;
  ignore (span s Run (fun () -> Engine.run eng));
  finish_engine s eng

let collect_system h sys =
  let p = System.platform sys in
  let n = Noc.stats (Platform.noc p) in
  add_int h "noc.packets" n.Noc.packets;
  add_int h "noc.payload_bytes" n.Noc.payload_bytes;
  add_int h "noc.link_busy_ps" n.Noc.link_busy_ps;
  for tile = 0 to Platform.tile_count p - 1 do
    let d = Dtu.stats (Platform.dtu p tile) in
    add_int h "dtu.sends" d.Dtu.sends;
    add_int h "dtu.replies" d.Dtu.replies;
    add_int h "dtu.fetches" d.Dtu.fetches;
    add_int h "dtu.acks" d.Dtu.acks;
    add_int h "dtu.core_reqs" d.Dtu.core_reqs;
    add_int h "dtu.credit_stalls" d.Dtu.credit_stalls;
    add_int h "dtu.delivery_failures" d.Dtu.delivery_failures;
    add_int h "dtu.mpmc_deliveries" d.Dtu.mpmc_deliveries;
    add_int h "dtu.dma_bytes" d.Dtu.dma_bytes
  done;
  List.iter
    (fun tile ->
      let d = Dram.stats (Platform.dram_exn p tile) in
      add_int h "dram.bytes_read" d.Dram.bytes_read;
      add_int h "dram.bytes_written" d.Dram.bytes_written)
    (Platform.memory_tiles p);
  List.iter
    (fun tile ->
      let rt = System.runtime sys ~tile in
      let c = Runtime.counters rt in
      add h "mux.ctx_switches" (Counter.get c "ctx_switch");
      add h "mux.preempts" (Counter.get c "preempt");
      add_int h "mux.busy_ps" (Runtime.mux_busy rt))
    (Platform.processing_tiles p);
  let k = Controller.stats (System.controller sys) in
  add_int h "kernel.syscalls" k.Controller.syscalls;
  add_int h "kernel.mx_switches" k.Controller.mx_switches;
  add_int h "kernel.mx_forwards" k.Controller.mx_forwards;
  add_int h "kernel.busy_ps" k.Controller.busy_ps

(* Create, boot and run one [System]: the three phases every System-based
   workload shares.  [wire] does the service wiring and spawns between
   create and boot, and returns what the caller reads after the run. *)
let system s ~create ~wire =
  let sys = span s Create create in
  let x = span s Wire (fun () -> wire sys) in
  span s Boot (fun () -> System.boot sys);
  observe_queue s (System.engine sys);
  ignore (span s Run (fun () -> System.run sys));
  finish_engine s (System.engine sys);
  if s.h.traced then collect_system s.h sys;
  (sys, x)

(* The traced run's metrics registry: its counters, summed over labels,
   become counts named "registry.<name>". *)
let collect_registry h reg =
  let open M3v_bench_io.Bench_io in
  match parse_json (M3v_obs.Metrics.to_json reg) with
  | J_obj fields -> (
      match List.assoc_opt "counters" fields with
      | Some (J_arr counters) ->
          List.iter
            (function
              | J_obj c -> (
                  match (List.assoc_opt "name" c, List.assoc_opt "value" c) with
                  | Some (J_str name), Some (J_num v) -> add h ("registry." ^ name) v
                  | _ -> ())
              | _ -> ())
            counters
      | _ -> ())
  | _ -> ()

(* CPU seconds summed over this repeat's spans. *)
let phase_s h phases =
  List.fold_left
    (fun acc sp -> if List.mem sp.phase phases then acc +. sp.cpu_s else acc)
    0.0 h.spans

let phase_gc h phase f =
  List.fold_left
    (fun acc sp -> if sp.phase = phase then acc +. f sp.gc else acc)
    0.0 h.spans

let setup_s h = phase_s h [ Create; Wire; Boot ]
let run_s h = phase_s h [ Run ]
let outcomes h = List.rev h.outcomes
let failed h = List.length (List.filter (fun o -> o.problems <> []) h.outcomes)

let digest h =
  Digest.to_hex
    (Digest.string
       (String.concat "\n"
          (List.map (fun o -> o.label ^ "=" ^ o.result) (outcomes h))))
