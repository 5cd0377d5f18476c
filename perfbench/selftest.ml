(* The benchmark's own tests:

     selftest.exe ROOT

   - on the default seed, each rebuilt simulation reproduces the
     experiment it mirrors ([Exp_fig9.throughput], [Exp_fig10.run],
     [Exp_load.run]) exactly;
   - the same seed run twice gives the same digest and the same
     allocation per event, and the digest is the recorded one;
   - a seed held out from development passes every output check;
   - ROOT/BENCHMARK.json lists the metrics the benchmark prints. *)

module H = Harness
module W = Workloads
module Time = M3v_sim.Time
module Stats = M3v_sim.Stats
module Ycsb = M3v_apps.Ycsb
module Exp_fig9 = M3v.Exp_fig9
module Exp_fig10 = M3v.Exp_fig10
module Exp_load = M3v.Exp_load
module Bench_io = M3v_bench_io.Bench_io

let root = ref "."

(* A seed no tuning run used. *)
let held_out_seed = 9_176_243

let untraced () = H.create ~traced:false

let test_fig9 () =
  List.iter
    (fun trace ->
      List.iter
        (fun variant ->
          let tiles = 2 in
          let runs = W.ctxsw_runs and warmup = W.ctxsw_warmup in
          let ours, _ = W.ctxsw_point (untraced ()) ~variant ~trace ~tiles ~runs ~warmup in
          let theirs = Exp_fig9.throughput ~variant ~trace ~tiles ~runs ~warmup () in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s %s" (W.variant_name variant) trace.M3v_apps.Trace.name)
            theirs ours)
        [ M3v.System.M3v; M3v.System.M3x ])
    (W.ctxsw_traces ~seed:W.default_seed)

(* [Exp_fig10]'s row over per-rep samples, none of them warm-up. *)
let fig10_row config samples =
  let totals = List.map (fun (e, _) -> Time.to_s e) samples in
  let ts = Stats.summarize totals in
  let mean_sys = Stats.mean (List.map (fun (_, s) -> Time.to_s s) samples) in
  {
    Exp_fig10.config;
    total_s = ts.Stats.mean;
    total_sd = ts.Stats.stddev;
    user_s = Float.max 0.0 (ts.Stats.mean -. mean_sys);
    sys_s = mean_sys;
  }

let test_fig10 () =
  let reps = 2 in
  let r =
    Exp_fig10.run ~runs:reps ~warmup:0 ~records:W.ycsb_records
      ~operations:W.ycsb_operations ()
  in
  List.iter
    (fun mix ->
      let requests, _ =
        W.ycsb_requests ~seed:W.default_seed ~records:W.ycsb_records
          ~operations:W.ycsb_operations mix
      in
      let rows =
        List.map
          (fun config ->
            let samples, _ =
              match config with
              | W.Iso -> W.ycsb_m3v (untraced ()) ~shared:false ~reps ~requests
              | W.Shared -> W.ycsb_m3v (untraced ()) ~shared:true ~reps ~requests
              | W.Linux -> W.ycsb_linux (untraced ()) ~reps ~requests
            in
            fig10_row (W.config_name config) samples)
          [ W.Iso; W.Shared; W.Linux ]
      in
      Alcotest.(check bool)
        (Ycsb.workload_name mix) true
        (List.assoc (Ycsb.workload_name mix) r.Exp_fig10.workloads = rows))
    W.ycsb_mixes

(* The load steps on a shorter window than the workload's: the same code
   path at a fraction of the cost. *)
let test_load () =
  let cfg = { (W.kv_config ~seed:W.default_seed) with duration_ms = 500 } in
  let theirs = (Exp_load.run ~cfg ()).Exp_load.r_steps in
  List.iter2
    (fun frac (t : Exp_load.step) ->
      let ours = W.kv_step (untraced ()) cfg ~frac in
      Alcotest.(check bool)
        (Printf.sprintf "step x%.2f" frac)
        true
        (ours = { t with st_segments = [] }))
    cfg.Exp_load.fracs theirs

let repeat (w : W.t) ~seed =
  let h = untraced () in
  let w0 = Gc.minor_words () in
  w.W.repeat h ~seed;
  let words = Gc.minor_words () -. w0 in
  (h, words /. float_of_int h.H.events)

let test_repeatable (w : W.t) () =
  ignore (repeat w ~seed:W.default_seed);
  let h1, a1 = repeat w ~seed:W.default_seed in
  let h2, a2 = repeat w ~seed:W.default_seed in
  Alcotest.(check string) "digest" (H.digest h1) (H.digest h2);
  Alcotest.(check (option string))
    "recorded digest" (W.recorded_digest w.W.name) (Some (H.digest h1));
  Alcotest.(check (float 0.0)) "alloc_words_per_event" a1 a2

let test_held_out (w : W.t) () =
  let h, _ = repeat w ~seed:held_out_seed in
  List.iter
    (fun o -> Alcotest.(check (list string)) o.H.label [] o.H.problems)
    (H.outcomes h)

(* Names and units of the metrics in one section of BENCHMARK.json. *)
let listed json section =
  match json with
  | Bench_io.J_obj fields -> (
      match List.assoc_opt section fields with
      | Some (Bench_io.J_arr ms) ->
          List.map
            (function
              | Bench_io.J_obj m -> (
                  match (List.assoc_opt "name" m, List.assoc_opt "unit" m) with
                  | Some (Bench_io.J_str n), Some (Bench_io.J_str u) -> (n, u)
                  | _ -> Alcotest.fail "metric without name or unit")
              | _ -> Alcotest.fail "metric is not an object")
            ms
      | _ -> Alcotest.failf "no %s list" section)
  | _ -> Alcotest.fail "not an object"

let test_catalogue () =
  let json =
    Bench_io.parse_json
      (In_channel.with_open_bin (Filename.concat !root "BENCHMARK.json")
         In_channel.input_all)
  in
  let per_layer = List.concat_map (fun l -> l.Report.metrics) Report.layers in
  Alcotest.(check (list (pair string string)))
    "end_to_end" Report.end_to_end (listed json "end_to_end");
  Alcotest.(check (list (pair string string)))
    "per_layer" per_layer (listed json "per_layer")

let () =
  (match Sys.argv with
  | [| _; dir |] -> root := dir
  | _ -> ());
  let per_workload name f =
    (name, List.map (fun w -> Alcotest.test_case w.W.name `Slow (f w)) W.all)
  in
  Alcotest.run ~argv:[| "selftest" |] "perfbench"
    [
      ( "reproduces",
        [
          Alcotest.test_case "Exp_fig9.throughput" `Slow test_fig9;
          Alcotest.test_case "Exp_fig10.run" `Slow test_fig10;
          Alcotest.test_case "Exp_load.run" `Slow test_load;
        ] );
      per_workload "repeatable" test_repeatable;
      per_workload "held-out seed" test_held_out;
      ("catalogue", [ Alcotest.test_case "BENCHMARK.json" `Quick test_catalogue ]);
    ]
