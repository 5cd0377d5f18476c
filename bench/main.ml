(* Benchmark harness.

   Two parts, as required for the reproduction:

   1. Regenerate every table and figure of the paper's evaluation with the
      paper's parameters and print them (the "figures" below);
   2. Register one Bechamel [Test.make] per experiment, measuring the
      simulator itself on scaled-down instances (so the mono-clock numbers
      are host-side costs of regenerating each figure, suitable for
      tracking simulator performance regressions).

   `dune exec bench/main.exe` runs both.  Pass `--bechamel-only` or
   `--figures-only` to run half; `--jobs N` fans the figures out over N
   domains (the Bechamel suite always runs sequentially — parallel noise
   would defeat its purpose).

   CI perf tracking:
     bench --bechamel-only --json out.json     # results + git/host metadata
     bench --compare BASE.json CUR.json        # per-test deltas; exits 1 on
                                               # >threshold regressions
     bench --compare ... --threshold 25        # regression cutoff in % *)

open Bechamel
open Toolkit
module Runner = M3v.Exp_runner
module Bench_io = M3v_bench_io.Bench_io

let figures ?jobs () =
  Format.printf "@.######## Paper evaluation: all tables and figures ########@.";
  Runner.all ?jobs ();
  Format.printf "@.######## End of paper evaluation ########@.@."

(* --- scaled-down experiment instances for the Bechamel tests --- *)

let fig6_small () = ignore (M3v.Exp_fig6.run ~rounds:60 ())
let fig7_small () = ignore (M3v.Exp_fig7.run ~runs:1 ~warmup:0 ~file_size:(256 * 1024) ())
let fig8_small () = ignore (M3v.Exp_fig8.run ~runs:5 ~warmup:1 ())

let fig9_small () =
  ignore (M3v.Exp_fig9.run ~runs:1 ~warmup:0 ~tile_counts:[ 1; 2 ] ())

let fig10_small () = ignore (M3v.Exp_fig10.run ~runs:1 ~warmup:0 ~records:40 ~operations:40 ())
let voice_small () = ignore (M3v.Exp_voice.run ~runs:1 ~warmup:0 ~audio_seconds:4.0 ())
let table1_bench () = ignore (M3v.Exp_table1.run ())

(* Micro-level simulator benchmarks: cost of the core primitives. *)
let sim_rpc_m3v () =
  let open M3v in
  let r =
    Exp_fig6.run ~rounds:40 ()
  in
  ignore r

let tests =
  [
    Test.make ~name:"table1_area" (Staged.stage table1_bench);
    Test.make ~name:"fig6_rpc" (Staged.stage fig6_small);
    Test.make ~name:"fig7_fs" (Staged.stage fig7_small);
    Test.make ~name:"fig8_udp" (Staged.stage fig8_small);
    Test.make ~name:"fig9_scale" (Staged.stage fig9_small);
    Test.make ~name:"voice_assistant" (Staged.stage voice_small);
    Test.make ~name:"fig10_ycsb" (Staged.stage fig10_small);
    Test.make ~name:"sim_rpc_m3v" (Staged.stage sim_rpc_m3v);
    Test.make ~name:"ablation_extent"
      (Staged.stage (fun () -> ignore (M3v.Ablations.extent_size ~caps:[ 8; 64 ] ())));
    Test.make ~name:"ablation_fanin"
      (Staged.stage (fun () ->
           ignore (M3v.Exp_fanin.run ~msgs:10 ~sender_counts:[ 4; 16 ] ())));
    Test.make ~name:"ablation_migrate"
      (Staged.stage (fun () ->
           ignore (M3v.Exp_migrate.run ~rounds:60 ~rates:[ 10_000 ] ())));
    Test.make ~name:"load_harness"
      (Staged.stage (fun () ->
           ignore
             (M3v.Exp_load.run
                ~cfg:
                  {
                    M3v.Exp_load.default with
                    clients = 200;
                    drivers = 2;
                    rate_per_s = 400.0;
                    warmup_ms = 10;
                    duration_ms = 40;
                    fracs = [ 0.5; 1.0 ];
                  }
                ())));
  ]

let bechamel () =
  Format.printf "######## Bechamel: simulator cost per experiment ########@.";
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:12 ~quota:(Time.second 2.0) ~stabilize:false
      ~kde:(Some 16) ()
  in
  let results =
    List.map
      (fun test ->
        let results = Benchmark.all cfg instances test in
        let analysis =
          Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                         ~predictors:[| Measure.run |])
            (Instance.monotonic_clock) results
        in
        (Test.name test, analysis))
      tests
  in
  (* Flatten to (name, ns/run estimate) so both renderers below agree. *)
  let estimates =
    List.map
      (fun (name, analysis) ->
        let est = ref None in
        Hashtbl.iter
          (fun _ ols ->
            match Analyze.OLS.estimates ols with
            | Some (e :: _) -> est := Some e
            | Some [] | None -> ())
          analysis;
        (name, !est))
      results
  in
  Format.printf "  %-18s %16s@." "experiment" "host ns/run";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Format.printf "  %-18s %16.0f@." name est
      | None -> Format.printf "  %-18s %16s@." name "n/a")
    estimates;
  estimates

(* --- provenance: where, when and from which commit the numbers came --- *)

let git_sha () =
  match Unix.open_process_in "git rev-parse HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
      let sha = try input_line ic with End_of_file -> "" in
      (match Unix.close_process_in ic with
      | Unix.WEXITED 0 when sha <> "" -> sha
      | _ -> "unknown")

let iso8601_utc now =
  let tm = Unix.gmtime now in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let write_json ?jobs path estimates =
  let report =
    Bench_io.make ~git_sha:(git_sha ())
      ~timestamp:(iso8601_utc (Unix.gettimeofday ()))
      ~ocaml_version:Sys.ocaml_version
      ~hostname:(try Unix.gethostname () with _ -> "unknown")
      ~jobs:(Option.value jobs ~default:1)
      estimates
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Bench_io.to_json report));
  Format.printf "@.bench results -> %s@." path

(* --- baseline comparison (the CI perf-regression gate) --- *)

let load_report path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Format.eprintf "bench: cannot read %s: %s@." path msg;
      exit 2
  in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Bench_io.of_json text with
  | Ok r -> r
  | Error msg ->
      Format.eprintf "bench: %s: %s@." path msg;
      exit 2

let compare_reports ~threshold_pct base_path cur_path =
  let baseline = load_report base_path in
  let current = load_report cur_path in
  let cmp = Bench_io.compare ~threshold_pct ~baseline ~current in
  Bench_io.pp_comparison ~threshold_pct ~baseline ~current
    Format.std_formatter cmp;
  if cmp.Bench_io.regressions <> [] then exit 1

let () =
  let args = Array.to_list Sys.argv in
  let figures_only = List.mem "--figures-only" args in
  let bechamel_only = List.mem "--bechamel-only" args in
  let find_opt flag =
    let rec find = function
      | f :: v :: _ when f = flag -> Some v
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let find2_opt flag =
    let rec find = function
      | f :: a :: b :: _ when f = flag -> Some (a, b)
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  let threshold_pct =
    match Option.map float_of_string_opt (find_opt "--threshold") with
    | Some None ->
        Format.eprintf "bench: --threshold expects a number@.";
        exit 2
    | Some (Some t) -> t
    | None -> 25.0
  in
  match find2_opt "--compare" with
  | Some (base_path, cur_path) ->
      compare_reports ~threshold_pct base_path cur_path
  | None ->
      let jobs =
        match Option.map int_of_string_opt (find_opt "--jobs") with
        | Some None ->
            Format.eprintf "bench: --jobs expects a number@.";
            exit 2
        | Some (Some j) -> Some j
        | None -> None
      in
      if not bechamel_only then figures ?jobs ();
      if not figures_only then begin
        let estimates = bechamel () in
        match find_opt "--json" with
        | Some path -> write_json ?jobs path estimates
        | None -> ()
      end
