module Par = M3v_par.Par

let opt v = if v <= 0 then None else Some v

let parse_faults s =
  match M3v_fault.Fault.parse s with
  | Ok spec -> spec
  | Error msg ->
      Format.eprintf "m3vsim: bad --faults spec: %s@." msg;
      exit 2

(* When [faults] names a spec, run the experiment under a deterministic
   fault plan (same spec + seed => same fault schedule). *)
let with_faults ?faults ~fault_seed f =
  match faults with
  | None -> f ()
  | Some s ->
      let plan = M3v_fault.Fault.create ~seed:fault_seed (parse_faults s) in
      M3v_fault.Fault.with_plan plan (fun () ->
          f ();
          Format.printf "@.fault injection: seed=%d %a@." fault_seed
            M3v_fault.Fault.pp_stats
            (M3v_fault.Fault.stats plan))

(* When [trace] names a file, run the experiment with a trace sink
   installed, then dump Chrome trace-event JSON there and print the
   latency/summary tables. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      (* Open before the (possibly long) run so a bad path fails fast. *)
      let oc =
        try open_out path
        with Sys_error msg ->
          Format.eprintf "m3vsim: cannot write trace file: %s@." msg;
          exit 1
      in
      let sink = M3v_obs.Trace.make () in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          M3v_obs.Trace.with_sink sink f;
          M3v_obs.Chrome.write oc sink);
      Format.printf "@.trace: %d events -> %s@." (M3v_obs.Trace.event_count sink)
        path;
      M3v_obs.Report.print Format.std_formatter sink

(* When [metrics] names a file, run the experiment with a metrics registry
   installed, then export JSON there and print the metric tables.  Unlike
   a trace sink, a registry does not keep tasks inline: the pool shards
   it per task and merges in submission order, so parallel metrics
   output is byte-identical to a sequential run's. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Format.eprintf "m3vsim: cannot write metrics file: %s@." msg;
          exit 1
      in
      let reg = M3v_obs.Metrics.create () in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          M3v_obs.Metrics.with_registry reg f;
          Buffer.output_buffer oc (M3v_obs.Metrics.to_buffer reg));
      Format.printf "@.metrics -> %s@." path;
      M3v_obs.Metrics.print Format.std_formatter reg

(* Every experiment runs on a pool of [jobs] domains under the requested
   fault plan, trace sink and metrics registry.  While a plan or sink is
   installed the pool runs each task inline on this domain ({!Par}). *)
let observed ?trace ?metrics ?faults ?(fault_seed = 1) ?jobs f =
  Par.Pool.with_pool ?jobs (fun pool ->
      with_faults ?faults ~fault_seed (fun () ->
          with_trace trace (fun () -> with_metrics metrics (fun () -> f pool))))

type figure = {
  name : string;
  doc : string;
  count : [ `Rounds | `Runs ];
  run : Par.Pool.t -> int -> unit -> unit;
}

let figure name count doc run print =
  let run pool n =
    let r = run pool (opt n) in
    fun () -> print r
  in
  { name; doc; count; run }

(* The paper's figures, in evaluation order (the order [all] prints). *)
let figures =
  [
    figure "fig6" `Rounds "Figure 6: local/remote RPC vs Linux primitives"
      (fun pool rounds -> Exp_fig6.run ~pool ?rounds ()) Exp_fig6.print;
    figure "fig7" `Runs "Figure 7: file read/write throughput"
      (fun pool runs -> Exp_fig7.run ~pool ?runs ()) Exp_fig7.print;
    figure "fig8" `Runs "Figure 8: UDP latency"
      (fun pool runs -> Exp_fig8.run ~pool ?runs ()) Exp_fig8.print;
    figure "fig9" `Runs "Figure 9: scalability of tile multiplexing (M3x vs M3v)"
      (fun pool runs -> Exp_fig9.run ~pool ?runs ()) Exp_fig9.print;
    figure "voice" `Runs "Section 6.5.1: voice assistant sharing overhead"
      (fun pool runs -> Exp_voice.run ~pool ?runs ()) Exp_voice.print;
    figure "fig10" `Runs "Figure 10: cloud service (YCSB) vs Linux"
      (fun pool runs -> Exp_fig10.run ~pool ?runs ()) Exp_fig10.print;
  ]

let run_figure ?trace ?metrics ?faults ?fault_seed ?jobs fig n =
  observed ?trace ?metrics ?faults ?fault_seed ?jobs (fun pool ->
      fig.run pool n ())

let fanin ?trace ?metrics ?faults ?fault_seed ?jobs ~msgs ~senders () =
  let sender_counts =
    match senders with [] -> None | counts -> Some counts
  in
  observed ?trace ?metrics ?faults ?fault_seed ?jobs (fun pool ->
      Exp_fanin.print (Exp_fanin.run ~pool ?msgs:(opt msgs) ?sender_counts ()))

let load ?trace ?metrics ?faults ?fault_seed ?jobs ~cfg () =
  observed ?trace ?metrics ?faults ?fault_seed ?jobs (fun pool ->
      Exp_load.print (Exp_load.run ~pool ~cfg ()))

(* Both halves of the ablation in one report: the clean sweep, then the
   same sweep under a [mig_abort] fault plan (installed per task inside
   [Exp_migrate.run], so the points still fan out over the pool). *)
let migrate ?trace ?metrics ?jobs ?(seed = 11) ~rounds ~rates () =
  let rates = match rates with [] -> None | l -> Some l in
  observed ?trace ?metrics ?jobs (fun pool ->
      Exp_migrate.print
        (Exp_migrate.run ~pool ?rounds:(opt rounds) ?rates ~faulty:false ~seed ());
      Exp_migrate.print
        (Exp_migrate.run ~pool ?rounds:(opt rounds) ?rates ~faulty:true ~seed ()))

(* The chaos soak manages its own plan: [Exp_chaos.run] installs the spec
   and seed itself — inside each task, so a sweep can run seeds on worker
   domains. *)
let chaos_outcome = function
  | Exp_chaos.Completed r -> Exp_chaos.print r
  | Exp_chaos.Suspended { checkpoints; file } ->
      (* stderr: a later resume prints the (stdout) report, which must be
         byte-identical to an uninterrupted run's. *)
      Format.eprintf "chaos: suspended after %d checkpoint(s) -> %s@."
        checkpoints file

let chaos ?trace ?faults ?(fault_seed = 7) ?jobs ?(seeds = 1)
    ?checkpoint_every_ms ?(checkpoint_file = "chaos.ckpt") ?stop_after ?resume
    ~rounds ~ops () =
  let spec = Option.map parse_faults faults in
  let every_ms = Option.bind checkpoint_every_ms (fun n -> opt n) in
  match (resume, every_ms) with
  | Some file, _ -> (
      match Exp_chaos.resume ~file ?stop_after:(Option.bind stop_after opt) () with
      | Error msg ->
          Format.eprintf "m3vsim chaos: %s@." msg;
          exit 2
      | Ok outcome -> chaos_outcome outcome)
  | None, Some ms ->
      if Option.is_some trace then begin
        Format.eprintf
          "m3vsim chaos: --checkpoint-every is incompatible with --trace \
           (trace sinks hold channels, which cannot be checkpointed)@.";
        exit 2
      end;
      if seeds > 1 then begin
        Format.eprintf
          "m3vsim chaos: --checkpoint-every soaks a single seed (got \
           --seeds %d)@."
          seeds;
        exit 2
      end;
      chaos_outcome
        (Exp_chaos.run_checkpointed ?spec ~seed:fault_seed
           ?fs_rounds:(opt rounds) ?kv_ops:(opt ops)
           ~every:(M3v_sim.Time.ms ms) ~file:checkpoint_file
           ?stop_after:(Option.bind stop_after opt) ())
  | None, None ->
      observed ?trace ?jobs (fun pool ->
          Exp_chaos.run_sweep ~pool ?spec ~seed:fault_seed ~seeds
            ?fs_rounds:(opt rounds) ?kv_ops:(opt ops) ()
          |> List.iter Exp_chaos.print)

let table1 ?trace () =
  with_trace trace (fun () -> Exp_table1.print (Exp_table1.run ()))

let complexity () = Exp_table1.print_complexity (Exp_table1.run_complexity ())

let ablations ?trace ?jobs () =
  observed ?trace ?jobs (fun pool ->
      List.iter Ablations.print (Ablations.run_all ~pool ()))

(* Critical-path profiler entry point: run one experiment sequentially
   under a private trace sink (flow events need the single-domain sink),
   then decompose every message flow's end-to-end latency into
   paper-aligned segments.  [trace]/[folded]/[metrics] optionally dump
   the raw Chrome trace, a flamegraph-style folded-stack file, and the
   metrics registry alongside the profile tables. *)
let profile ?(exp = "fig6") ?trace ?folded ?metrics ~rounds ~runs () =
  let fig =
    match List.find_opt (fun f -> f.name = exp) figures with
    | Some fig -> fig
    | None ->
        (* Shortlex order lists fig10 after fig9. *)
        let names =
          List.map (fun f -> (String.length f.name, f.name)) figures
          |> List.sort compare |> List.map snd
        in
        Format.eprintf "m3vsim profile: unknown experiment %S (expected %s)@."
          exp (String.concat "|" names);
        exit 2
  in
  let n = match fig.count with `Rounds -> rounds | `Runs -> runs in
  let sink = M3v_obs.Trace.make () in
  let run () =
    M3v_obs.Trace.with_sink sink (fun () ->
        ignore (fig.run Par.Pool.sequential n : unit -> unit))
  in
  with_metrics metrics run;
  (match trace with
  | None -> ()
  | Some path ->
      M3v_obs.Chrome.write_file path sink;
      Format.printf "trace: %d events -> %s@."
        (M3v_obs.Trace.event_count sink)
        path);
  (match folded with
  | None -> ()
  | Some path ->
      M3v_obs.Profile.write_folded path sink;
      Format.printf "folded stacks -> %s@." path);
  M3v_obs.Profile.print Format.std_formatter (M3v_obs.Profile.analyze sink)

(* Fan out whole experiments as tasks (they also fan out internally via
   the same pool); each task returns a printer thunk that main runs in
   submission order, so the combined report is byte-identical to a
   sequential run. *)
let all ?jobs () =
  Par.Pool.with_pool ?jobs (fun pool ->
      Par.all pool
        ([
           (fun () ->
             let r = Exp_table1.run () in
             fun () -> Exp_table1.print r);
           (fun () ->
             let r = Exp_table1.run_complexity () in
             fun () -> Exp_table1.print_complexity r);
         ]
        @ List.map (fun fig () -> fig.run pool 0) figures
        @ [
            (fun () ->
              let r = Ablations.run_all ~pool () in
              fun () -> List.iter Ablations.print r);
            (fun () ->
              let r = Exp_fanin.run ~pool () in
              fun () -> Exp_fanin.print r);
            (fun () ->
              let clean = Exp_migrate.run ~pool ~faulty:false () in
              let faulty = Exp_migrate.run ~pool ~faulty:true () in
              fun () ->
                Exp_migrate.print clean;
                Exp_migrate.print faulty);
          ])
      |> List.iter (fun print -> print ()))
