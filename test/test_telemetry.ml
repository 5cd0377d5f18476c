(* Per-window shard telemetry (lib/par/telemetry.ml): transparency —
   enabling it never changes experiment results across shard and job
   counts — plus exact event conservation against the engines' processed
   ledgers (through max_events cuts and a mid-run checkpoint slice),
   limiter-attribution and critical-path invariants, Chrome-lane
   well-formedness, and which sweep points return a group. *)

module Time = M3v_sim.Time
module Engine = M3v_sim.Engine
module Shard = M3v_par.Shard
module Telemetry = M3v_par.Telemetry
module Par = M3v_par.Par
module Exp_shard = M3v.Exp_shard
module J = M3v_bench_io.Bench_io

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Transparency: telemetry on == telemetry off, shards x jobs --- *)

(* The experiment stream's byte-identity is diffed in CI; here the same
   contract at the result level: every simulated field of a sweep point
   is unchanged by telemetry, for every (shards, jobs) combination. *)
let prop_telemetry_transparent =
  QCheck.Test.make ~name:"telemetry on == off (shards x jobs x seed)"
    ~count:10
    QCheck.(triple (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 4 ]) (int_range 1 1000))
    (fun (shards, jobs, seed) ->
      let point ~telemetry pool =
        Exp_shard.run_point ~progress:false ~telemetry ~pool ~tiles:32 ~shards
          ~chains_per_tile:2 ~hops:8 ~weight:16 ~seed ()
      in
      let run ~telemetry =
        if jobs = 1 then point ~telemetry Par.Pool.sequential
        else Par.Pool.with_pool ~jobs (fun pool -> point ~telemetry pool)
      in
      let off = run ~telemetry:false in
      let on = run ~telemetry:true in
      off.Exp_shard.p_makespan = on.Exp_shard.p_makespan
      && off.Exp_shard.p_checksum = on.Exp_shard.p_checksum
      && off.Exp_shard.p_events = on.Exp_shard.p_events
      && off.Exp_shard.p_match && on.Exp_shard.p_match)

(* --- Conservation: telemetry counts == engine ledgers, exactly --- *)

(* Two shards ping-ponging a counter with telemetry enabled; the group
   is self-contained so it can also be marshalled mid-run. *)
let build_pingpong () =
  let g : int Shard.t = Shard.create ~lookahead:10 ~shards:2 () in
  let tm = Shard.enable_telemetry g in
  Shard.set_handler g (fun ~dst ~time m ->
      Engine.at (Shard.engine g dst) ~time (fun () ->
          if m < 40 then
            Shard.send g ~src:dst ~dst:(1 - dst) ~time:(time + 10) (m + 1)));
  Shard.send g ~src:0 ~dst:1 ~time:10 0;
  (g, tm)

let processed g =
  let s = ref 0 in
  for i = 0 to Shard.shards g - 1 do
    s := !s + Engine.events_processed (Shard.engine g i)
  done;
  !s

let test_event_counts_conserved_across_cuts () =
  (* Step with a per-shard max_events cap: every step's telemetry delta
     must equal both the step's return value and the engines' processed
     ledger delta — no window lost, none double-counted. *)
  let g, tm = build_pingpong () in
  let rec drain total =
    let led0 = processed g in
    let tel0 = Telemetry.events tm in
    match Shard.step ~max_events:3 g with
    | `Events n ->
        check_int "step return = ledger delta" (processed g - led0) n;
        check_int "telemetry delta = step return" n (Telemetry.events tm - tel0);
        drain (total + n)
    | `Idle -> total
  in
  let total = drain 0 in
  check_bool "workload ran" true (total > 0);
  check_int "telemetry total = events processed" (processed g)
    (Telemetry.events tm);
  check_int "stepped total agrees" total (Telemetry.events tm)

let test_checkpoint_slice_conserves_telemetry () =
  (* The telemetry rides inside the group through Marshal-with-closures:
     a run sliced by a mid-run checkpoint ends with the same totals and
     window structure as an uninterrupted one. *)
  let g_ref, tm_ref = build_pingpong () in
  let n_ref = Shard.run g_ref in
  let g, _ = build_pingpong () in
  let before = ref 0 in
  for _ = 1 to 4 do
    match Shard.step g with
    | `Events n -> before := !before + n
    | `Idle -> ()
  done;
  let bytes = Marshal.to_bytes g [ Marshal.Closures ] in
  let g' : int Shard.t = Marshal.from_bytes bytes 0 in
  let tm' =
    match Shard.telemetry g' with
    | Some t -> t
    | None -> Alcotest.fail "telemetry lost in marshal round-trip"
  in
  let n' = Shard.run g' in
  check_int "sliced event total = uninterrupted" n_ref (!before + n');
  check_int "telemetry total survives the slice" (Telemetry.events tm_ref)
    (Telemetry.events tm');
  check_int "window count survives the slice" (Telemetry.windows tm_ref)
    (Telemetry.windows tm')

(* --- Analyzer invariants on a real partitioned workload --- *)

let test_report_invariants () =
  let r =
    Exp_shard.report ~tiles:32 ~shards:4 ~chains_per_tile:2 ~hops:8 ~weight:16
      ~seed:1 ()
  in
  let tm = r.Exp_shard.rep_telemetry in
  let k = Telemetry.shards tm in
  check_int "telemetry shards = effective shards" r.Exp_shard.rep_shards k;
  check_int "telemetry events = run events"
    r.Exp_shard.rep_result.Exp_shard.r_events (Telemetry.events tm);
  check_int "telemetry windows = scheduler windows"
    r.Exp_shard.rep_result.Exp_shard.r_stats.Shard.windows
    (Telemetry.windows tm);
  check_int "merged messages = scheduler routed"
    r.Exp_shard.rep_result.Exp_shard.r_stats.Shard.messages_routed
    (Telemetry.merged tm);
  (* Per-shard decomposition sums back to the totals. *)
  check_int "per-shard events sum to total" (Telemetry.events tm)
    (Array.fold_left ( + ) 0 (Telemetry.shard_events tm));
  (* Every busy-shard window is attributed to exactly one limiter. *)
  let busy = Array.fold_left ( + ) 0 (Telemetry.shard_busy tm) in
  let attributed =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Telemetry.limiter_counts tm)
  in
  check_int "limiter attribution covers every busy slot" busy attributed;
  (* Critical path: max >= mean per window, so crit is sandwiched. *)
  let ev = Telemetry.events tm and crit = Telemetry.crit_events tm in
  check_bool "crit_events <= events" true (crit <= ev);
  check_bool "crit_events >= events/K" true (crit * k >= ev);
  let bound = Telemetry.speedup_bound tm in
  check_bool "1 <= speedup bound <= K" true
    (bound >= 1.0 && bound <= float_of_int k);
  check_bool "imbalance histogram bounded by windows" true
    (M3v_sim.Stats.Histogram.count (Telemetry.imbalance tm)
    <= Telemetry.windows tm);
  (* Nothing dropped at this size: retained records decompose the run. *)
  check_int "no windows dropped" 0 (Telemetry.dropped_windows tm);
  let recent = Telemetry.recent tm in
  check_int "one record per window" (Telemetry.windows tm)
    (List.length recent);
  check_int "records sum to event total" ev
    (List.fold_left
       (fun acc w -> acc + Array.fold_left ( + ) 0 w.Telemetry.w_events)
       0 recent);
  (* The analyzer prints its tables for this data. *)
  let text = Format.asprintf "%a" Telemetry.pp tm in
  let contains needle =
    let n = String.length needle and l = String.length text in
    let rec at i = i + n <= l && (String.sub text i n = needle || at (i + 1)) in
    at 0
  in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "report mentions %S" needle) true
        (contains needle))
    [ "limiter attribution"; "imbalance"; "critical path" ]

(* --- Chrome lanes --- *)

let test_chrome_lanes_well_formed () =
  let g, tm = build_pingpong () in
  ignore (Shard.run g);
  let sink = Telemetry.to_sink tm in
  let buf = M3v_obs.Chrome.to_buffer sink in
  match J.parse_json (Buffer.contents buf) with
  | J.J_obj fields -> (
      match List.assoc_opt "traceEvents" fields with
      | Some (J.J_arr evs) ->
          check_bool "lane events present" true (List.length evs > 0);
          (* Every event is an object with a phase. *)
          List.iter
            (fun ev ->
              match ev with
              | J.J_obj f ->
                  check_bool "event has ph" true (List.mem_assoc "ph" f)
              | _ -> Alcotest.fail "trace event is not an object")
            evs
      | _ -> Alcotest.fail "no traceEvents array")
  | _ -> Alcotest.fail "chrome export is not a JSON object"

(* --- Merging and sweep groups --- *)

let test_merge_groups_by_shard_count () =
  let run_one () =
    let g, tm = build_pingpong () in
    ignore (Shard.run g);
    tm
  in
  let a = run_one () and b = run_one () in
  let merged = Telemetry.merge_groups [ a; b ] in
  check_int "one group per shard count" 1 (List.length merged);
  let m = List.hd merged in
  check_int "merged windows sum" (Telemetry.windows a + Telemetry.windows b)
    (Telemetry.windows m);
  check_int "merged events sum" (Telemetry.events a + Telemetry.events b)
    (Telemetry.events m)

let test_sweep_returns_multi_shard_groups () =
  (* 32 tiles = 2 clusters (K clamped to 2), 16 tiles = 1 cluster (K = 1,
     the sequential reference shape: no group), 64 tiles = 4 clusters. *)
  let r =
    Exp_shard.run ~telemetry:true ~shards:4 ~chains_per_tile:2 ~hops:8
      ~weight:16 ~tile_counts:[ 32; 16; 64 ] ()
  in
  (match List.map (fun p -> p.Exp_shard.p_telemetry) r.Exp_shard.points with
  | [ Some t2; None; Some t4 ] ->
      check_int "first group: 32 tiles, K=2" 2 (Telemetry.shards t2);
      check_int "last group: 64 tiles, K=4" 4 (Telemetry.shards t4)
  | _ -> Alcotest.fail "expected groups for the K>1 points only");
  List.iter
    (fun p ->
      match p.Exp_shard.p_telemetry with
      | Some tm ->
          check_int "group events = point events" p.Exp_shard.p_events
            (Telemetry.events tm)
      | None -> check_int "no group at K=1" 1 p.Exp_shard.p_shards)
    r.Exp_shard.points;
  let off =
    Exp_shard.run ~shards:4 ~chains_per_tile:2 ~hops:8 ~weight:16
      ~tile_counts:[ 32 ] ()
  in
  check_bool "telemetry off: no group" true
    (List.for_all (fun p -> p.Exp_shard.p_telemetry = None) off.Exp_shard.points)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    Alcotest.test_case "conservation: step deltas == engine ledgers" `Quick
      test_event_counts_conserved_across_cuts;
    Alcotest.test_case "conservation: checkpoint slice == uninterrupted"
      `Quick test_checkpoint_slice_conserves_telemetry;
    Alcotest.test_case "analyzer invariants on a partitioned workload" `Quick
      test_report_invariants;
    Alcotest.test_case "chrome lanes are well-formed JSON" `Quick
      test_chrome_lanes_well_formed;
    Alcotest.test_case "merge_groups sums per shard count" `Quick
      test_merge_groups_by_shard_count;
    (* Named for the process-global collector this contract used to live
       in; the sweep now returns the groups itself, in point order. *)
    Alcotest.test_case "collector: multi-shard groups only, drained in order"
      `Quick test_sweep_returns_multi_shard_groups;
  ]
  @ qsuite [ prop_telemetry_transparent ]
