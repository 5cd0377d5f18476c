(* The benchmark's entry point:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one warm-up repeat of the workload, then repeats it until S
   seconds of host time have passed and prints one JSON object as its
   last line of standard output: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  Exits 1 when an output check
   fails, 2 on bad arguments. *)

module H = Harness
module W = Workloads
module Mono = M3v_par.Mono
module Metrics = M3v_obs.Metrics
module Trace = M3v_obs.Trace

type repeat = {
  h : H.t;
  wall_s : float;
  gc : H.gc;  (** over the whole repeat *)
  start_ns : Int64.t;
  cpu_s : float;
}

(* One repeat, from a collected heap.  A traced repeat runs under a
   metrics registry, whose counters it keeps. *)
let run_repeat (w : W.t) ~seed ~traced =
  Gc.full_major ();
  let h = H.create ~traced in
  let registry = if traced then Some (Metrics.create ()) else None in
  let g0 = H.gc_now () in
  let start_ns = Mono.now_ns () in
  let c0 = H.cpu_now () in
  (match registry with
  | Some r -> Metrics.with_registry r (fun () -> w.W.repeat h ~seed)
  | None -> w.W.repeat h ~seed);
  let wall_s = Mono.elapsed_s ~since:start_ns in
  let cpu_s = H.cpu_now () -. c0 in
  let gc = H.gc_diff g0 (H.gc_now ()) in
  Option.iter (H.collect_registry h) registry;
  { h; wall_s; gc; start_ns; cpu_s }

let median = Probes.median
let ratio num den ~none = if den = 0.0 then none else num /. den
let alloc_per_event r = r.gc.H.minor_words /. float_of_int r.h.H.events

(* ---- end-to-end metrics (untraced repeats) ---- *)

let end_to_end reps ~passed_frac =
  let med f = median (List.map f reps) in
  let word_bytes = float_of_int (Sys.word_size / 8) in
  function
  | "wall_s" -> med (fun r -> r.wall_s)
  | "setup_s" -> med (fun r -> H.setup_s r.h)
  | "events_per_s" -> med (fun r -> float_of_int r.h.H.events /. H.run_s r.h)
  | "alloc_words_per_event" -> med (fun r -> alloc_per_event r)
  | "peak_heap_mb" ->
      float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. word_bytes /. 1e6
  | "passed_frac" -> passed_frac
  | name -> invalid_arg name

(* ---- per-layer metrics (traced run) ---- *)

(* Values of every per-layer metric.  Counts are exact, so they come from
   one traced repeat; host times are medians over the traced repeats. *)
let layer_values ~traced ~untraced (probes : Probes.all) =
  let one = (List.hd traced).h in
  let c = H.count one in
  let med f = median (List.map f traced) in
  let phase_s phase = med (fun r -> H.phase_s r.h [ phase ]) in
  let phase_words phase f = H.phase_gc one phase f in
  let major g = g.H.major_words and minor g = g.H.minor_words in
  let words_and_ns prefix ?(ns = "_ns") ?(words = "_words") (r : Probes.result) =
    [ (prefix ^ ns, r.Probes.ns_per_call); (prefix ^ words, r.Probes.words_per_call) ]
  in
  let tlb_hits = c "registry.dtu/tlb_hit" in
  let attempts = c "dtu.sends" +. c "dtu.replies" in
  let computed =
  [
    ("core.create_s", phase_s H.Create);
    ("core.create_major_words", phase_words H.Create major);
    ("core.wire_s", phase_s H.Wire);
    ("core.boot_s", phase_s H.Boot);
    ("core.run_s", phase_s H.Run);
    ("core.run_minor_words", phase_words H.Run minor);
    ("core.run_major_words", phase_words H.Run major);
    ("core.probe_create_s", probes.create_gem5.ns_per_call /. 1e9);
    ("core.probe_create_words", probes.create_gem5.words_per_call);
    ("core.probe_create_fpga_s", probes.create_fpga.ns_per_call /. 1e9);
    ("core.probe_create_fpga_words", probes.create_fpga.words_per_call);
    ("gc.minor_collections", med (fun r -> float_of_int r.gc.H.minor_gcs));
    ("gc.major_collections", med (fun r -> float_of_int r.gc.H.major_gcs));
    ("dtu.delivered_ratio", ratio (attempts -. c "dtu.delivery_failures") attempts ~none:1.0);
    ( "dtu.tlb_hit_ratio",
      ratio tlb_hits (tlb_hits +. c "registry.dtu/tlb_miss") ~none:1.0 );
    ("load.goodput_ratio", ratio (c "load.completed") (c "load.scheduled") ~none:0.0);
    ( "trace_overhead",
      median (List.map (fun r -> r.wall_s) traced)
      /. median (List.map (fun r -> r.wall_s) untraced) );
  ]
  @ words_and_ns "sim.probe_queue" probes.queue
  @ words_and_ns "noc.probe_send" probes.noc
  @ words_and_ns "dtu.probe_rpc" probes.dtu
  @ words_and_ns "dram.probe_read" ~ns:"_ns_per_kib" ~words:"_words_per_kib"
      probes.dram_read
  @ words_and_ns "dram.probe_read_into" ~ns:"_ns_per_kib" ~words:"_words_per_kib"
      probes.dram_read_into
  in
  fun name ->
    match List.assoc_opt name computed with Some v -> v | None -> c name

let print_layers (w : W.t) value =
  Printf.printf "\nper-layer metrics, workload %s (should move: end-to-end metric; on: most / least)\n"
    w.W.name;
  List.iter
    (fun (l : Report.layer) ->
      Printf.printf "  [%s] should move %s; most on %s, least on %s\n" l.layer
        l.moves l.most l.least;
      List.iter
        (fun (name, unit_) ->
          Printf.printf "    %-36s %18.6g %s\n" name (value name) unit_)
        l.metrics)
    Report.layers

(* Phase seconds of one traced repeat, split by variant/configuration. *)
let print_groups r =
  let groups =
    List.sort_uniq compare (List.map (fun (sp : H.span) -> sp.group) r.h.H.spans)
  in
  Printf.printf "\n  %-16s %6s %10s %10s %10s %10s\n" "group" "sims" "create_s"
    "wire_s" "boot_s" "run_s";
  List.iter
    (fun g ->
      let sum phase =
        List.fold_left
          (fun acc (sp : H.span) ->
            if sp.group = g && sp.H.phase = phase then acc +. sp.H.dur_s else acc)
          0.0 r.h.H.spans
      in
      let sims =
        List.length
          (List.filter (fun (sp : H.span) -> sp.group = g && sp.phase = H.Create) r.h.H.spans)
      in
      Printf.printf "  %-16s %6d %10.4f %10.4f %10.4f %10.4f\n" g sims
        (sum H.Create) (sum H.Wire) (sum H.Boot) (sum H.Run))
    groups

(* Where the traced run writes its spans, relative to the checkout. *)
let spans_dir = "_perfbench"

(* The traced repeats' spans as Chrome trace-event JSON: one track per
   simulation id, a span per phase and one per repeat, each carrying its
   GC deltas.  Host nanoseconds are written as the sink's picoseconds so
   the viewer's microsecond axis reads host time. *)
let write_spans path reps =
  let t0 = match reps with r :: _ -> r.start_ns | [] -> 0L in
  let ps ns = Int64.to_int (Int64.sub ns t0) * 1000 in
  let dur s = int_of_float (s *. 1e12) in
  let gc_args (g : H.gc) =
    Trace.
      [
        ("minor_words", F g.H.minor_words);
        ("major_words", F g.H.major_words);
        ("minor_collections", I g.H.minor_gcs);
        ("major_collections", I g.H.major_gcs);
      ]
  in
  let sink = Trace.make () in
  Trace.with_sink sink (fun () ->
      List.iteri
        (fun i r ->
          Trace.complete ~cat:"repeat" ~name:(Printf.sprintf "repeat %d" i)
            ~ts:(ps r.start_ns) ~dur:(dur r.wall_s) ~args:(gc_args r.gc) ();
          List.iter
            (fun (sp : H.span) ->
              Trace.complete ~cat:"phase" ~name:(H.phase_name sp.H.phase)
                ~act:sp.H.sim ~ts:(ps sp.H.start_ns) ~dur:(dur sp.H.dur_s)
                ~args:
                  (Trace.("group", S sp.group) :: Trace.("sim", I sp.sim)
                  :: Trace.("cpu_s", F sp.cpu_s) :: gc_args sp.gc)
                ())
            (List.rev r.h.H.spans))
        reps);
  M3v_obs.Chrome.write_file path sink

let () =
  let workload = ref "" and seed = ref W.default_seed in
  let seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S host seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None ->
        prerr_endline
          ("unknown workload '" ^ !workload ^ "'; one of: "
          ^ String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
  in
  let traced_mode = !trace = 1 in
  let warm = run_repeat w ~seed:!seed ~traced:false in
  (* Measured repeats alternate untraced and traced in the traced run. *)
  let t0 = Mono.now_ns () in
  let rec loop untraced traced i =
    let enough =
      untraced <> [] && ((not traced_mode) || traced <> [])
      && Mono.elapsed_s ~since:t0 >= !seconds
    in
    if enough then (List.rev untraced, List.rev traced)
    else
      let tr = traced_mode && i mod 2 = 1 in
      let r = run_repeat w ~seed:!seed ~traced:tr in
      if tr then loop untraced (r :: traced) (i + 1)
      else loop (r :: untraced) traced (i + 1)
  in
  let untraced, traced = loop [] [] 0 in
  let all = (warm :: untraced) @ traced in
  let attempted = List.fold_left (fun acc r -> acc + List.length r.h.H.outcomes) 0 all in
  let failed = List.fold_left (fun acc r -> acc + H.failed r.h) 0 all in
  List.iter
    (fun o ->
      List.iter
        (fun p -> Printf.printf "FAILED %s: %s\n" o.H.label p)
        o.H.problems)
    (List.concat_map (fun r -> H.outcomes r.h) all);
  let digests = List.sort_uniq compare (List.map (fun r -> H.digest r.h) all) in
  let digest = H.digest warm.h in
  let digest_ok =
    match (digests, W.recorded_digest w.W.name) with
    | [ _ ], Some d when !seed = W.default_seed -> d = digest
    | [ _ ], _ -> true
    | _ -> false
  in
  if not digest_ok then
    Printf.printf "FAILED digest: repeats gave %s; recorded for seed %d: %s\n"
      (String.concat ", " digests) W.default_seed
      (Option.value ~default:"none" (W.recorded_digest w.W.name));
  if List.length (List.sort_uniq compare (List.map alloc_per_event untraced)) > 1 then
    prerr_endline
      "note: alloc_words_per_event differed between repeats (where a GC cycle \
       ends moves it by ~0.05%); the median is reported";
  let correct = failed = 0 && digest_ok in
  Printf.printf "workload %s, seed %d: %d untraced + %d traced repeats, digest %s\n"
    w.W.name !seed (List.length untraced) (List.length traced) digest;
  List.iter
    (fun r ->
      Printf.printf
        "  repeat%s: wall %.4f s, cpu %.4f s, setup %.4f s, run %.4f s, %d events, %.4f words/event\n"
        (if r.h.H.traced then " (traced)" else "")
        r.wall_s r.cpu_s (H.setup_s r.h) (H.run_s r.h) r.h.H.events (alloc_per_event r))
    (warm :: untraced @ traced);
  let metrics =
    if traced_mode then begin
      let depth = int_of_float (H.count (List.hd traced).h "sim.queue_depth_max") in
      let probes = Probes.run ~queue_depth:depth in
      let value = layer_values ~traced ~untraced probes in
      print_layers w value;
      print_groups (List.hd traced);
      if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
      let path = Filename.concat spans_dir (Printf.sprintf "%s-seed%d.json" w.W.name !seed) in
      write_spans path traced;
      Printf.printf "  spans: %s\n" path;
      List.concat_map
        (fun l -> List.map (fun (name, unit_) -> (name, unit_, value name)) l.Report.metrics)
        Report.layers
    end
    else begin
      let passed_frac =
        ratio (float_of_int (attempted - failed)) (float_of_int attempted) ~none:0.0
      in
      let value = end_to_end untraced ~passed_frac in
      let m = List.map (fun (name, unit_) -> (name, unit_, value name)) Report.end_to_end in
      List.iter (fun (name, unit_, v) -> Printf.printf "  %-24s %14.6g %s\n" name v unit_) m;
      m
    end
  in
  Report.json_line ~correct ~attempted ~failed metrics;
  exit (if correct then 0 else 1)
