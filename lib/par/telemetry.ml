(* Per-window shard telemetry for the conservative scheduler.

   A {!window} record captures one synchronization window: the bound each
   busy shard ran to, which shard's horizon produced that bound (limiter
   attribution), per-shard events executed and simulated-time span,
   cross-shard messages merged at the barrier, null (+inf) horizon
   advertisements, the inline-vs-pool dispatch decision, and monotonic
   wall-clock per shard.  A {!t} aggregates windows into per-shard
   totals, an imbalance histogram, limiter-attribution counts, and a
   critical-path bound on achievable speedup.

   Determinism contract.  Everything here is a pure observer: recording a
   window reads scheduler state but never influences bounds, dispatch, or
   merge order, so experiment output is byte-identical with telemetry on
   or off (asserted in test_telemetry).  Wall-clock readings are
   monotonic nanoseconds ({!Mono}) and live only in this side-channel —
   they are printed to the report stream (stderr for [--telemetry]; the
   [shard-report] subcommand's own stdout) and never enter simulated
   state.  All counted quantities except wall time are schedule-invariant:
   window structure is a function of horizons and lookahead alone, so
   events-per-window, limiter attribution and the critical path are
   identical across [--jobs] values.  The one jobs-DEPENDENT field is the
   dispatch decision ([w_pooled] / [pooled_windows]); it stays out of the
   Metrics registry for exactly that reason.

   Marshal-safety: a [t] lives inside a checkpointed {!Shard.t}, so it is
   plain data — int/bool/array records and a {!M3v_sim.Stats.Histogram}
   (an int-array record) — never Atomics, Mutexes, or closures.

   After a checkpoint/resume the process changes, and monotonic readings
   from the old process are meaningless in the new one: event counts and
   window structure survive a resume exactly (asserted by the
   conservation test), wall fields of pre-checkpoint windows do not.
   Chrome export clamps their timestamps to zero rather than pretending
   otherwise. *)

module Stats = M3v_sim.Stats
module Trace = M3v_obs.Trace
module Chrome = M3v_obs.Chrome

(* Limiter encoding used in [w_limiters] and the attribution tables. *)
let limiter_idle = -3 (* shard was not busy this window *)
let limiter_unbounded = -2 (* busy with no bound: every other shard idle *)
let limiter_until = -1 (* the driver's [until] clamp bound the shard *)

let limiter_name = function
  | l when l >= 0 -> Printf.sprintf "shard %d" l
  | l when l = limiter_until -> "until"
  | l when l = limiter_unbounded -> "unbounded"
  | _ -> "idle"

type window = {
  w_seq : int;  (** index of this window within its group's run *)
  w_events : int array;  (** events executed, per shard *)
  w_bounds : int array;  (** bound ran to, per shard; [max_int] = none *)
  w_limiters : int array;  (** limiter encoding above, per shard *)
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

type t = {
  shards : int;
  cap : int;
  epoch : int;  (** monotonic ns at creation; Chrome export origin *)
  mutable recs : window list;  (** newest first; at most [cap] kept *)
  mutable kept : int;
  mutable dropped : int;
  (* Running aggregates — never capped. *)
  mutable windows : int;
  mutable pooled_windows : int;
  mutable events : int;
  mutable crit_events : int;  (** sum over windows of max per-shard events *)
  mutable merged : int;
  mutable nulls : int;
  mutable wall_ns : int;
  mutable barrier_ns : int;  (** window wall not covered by shard work *)
  shard_events : int array;
  shard_busy : int array;
  shard_wall_ns : int array;
  limited_by : int array;  (** busy-shard windows bounded by shard [j] *)
  mutable limited_until : int;
  mutable limited_unbounded : int;
  imbalance : Stats.Histogram.t;
      (** per-window max/mean events over busy shards, in percent
          (100 = perfectly balanced); windows with >= 2 busy shards *)
}

let default_cap = 4096
let now () = Int64.to_int (Mono.now_ns ())

let make ?(cap = default_cap) ~shards () =
  if shards < 1 then invalid_arg "Telemetry.make: shards < 1";
  {
    shards;
    cap;
    epoch = now ();
    recs = [];
    kept = 0;
    dropped = 0;
    windows = 0;
    pooled_windows = 0;
    events = 0;
    crit_events = 0;
    merged = 0;
    nulls = 0;
    wall_ns = 0;
    barrier_ns = 0;
    shard_events = Array.make shards 0;
    shard_busy = Array.make shards 0;
    shard_wall_ns = Array.make shards 0;
    limited_by = Array.make shards 0;
    limited_until = 0;
    limited_unbounded = 0;
    imbalance = Stats.Histogram.create ();
  }

let shards t = t.shards
let windows t = t.windows
let pooled_windows t = t.pooled_windows
let events t = t.events
let crit_events t = t.crit_events
let merged t = t.merged
let nulls t = t.nulls
let wall_ns t = t.wall_ns
let barrier_ns t = t.barrier_ns
let dropped_windows t = t.dropped
let shard_events t = Array.copy t.shard_events
let shard_busy t = Array.copy t.shard_busy
let shard_wall_ns t = Array.copy t.shard_wall_ns
let imbalance t = t.imbalance

let limiter_counts t =
  let tbl = Array.to_list (Array.mapi (fun j c -> (j, c)) t.limited_by) in
  List.filter (fun (_, c) -> c > 0) tbl
  @ (if t.limited_until > 0 then [ (limiter_until, t.limited_until) ] else [])
  @
  if t.limited_unbounded > 0 then [ (limiter_unbounded, t.limited_unbounded) ]
  else []

let recent t = List.rev t.recs

(* Work / critical path: with K shards, a window can finish no faster
   than its busiest shard, so total work over the sum of per-window
   maxima bounds any parallel speedup from this window structure. *)
let speedup_bound t =
  if t.crit_events <= 0 then 1.0
  else float_of_int t.events /. float_of_int t.crit_events

(* {1 Window construction} — called from Shard.run_window. *)

let begin_window t ~seq ~nulls =
  {
    w_seq = seq;
    w_events = Array.make t.shards 0;
    w_bounds = Array.make t.shards max_int;
    w_limiters = Array.make t.shards limiter_idle;
    w_t0 = Array.make t.shards 0;
    w_t1 = Array.make t.shards 0;
    w_wall0 = Array.make t.shards 0;
    w_wall = Array.make t.shards 0;
    w_busy = 0;
    w_nulls = nulls;
    w_merged = 0;
    w_pooled = false;
    w_start = now ();
    w_wall_total = 0;
  }

(* Coordinating domain, before dispatch: mark shard [i] busy with its
   bound and the shard (or clamp) that produced it. *)
let set_bound w i ~bound ~limiter =
  w.w_bounds.(i) <- bound;
  w.w_limiters.(i) <- limiter

(* Worker-domain safe: shard [i]'s slots are written by exactly one task
   and read only after the pool barrier ([Par.await] gives the
   happens-before edge). *)
let shard_begin w i ~sim_now =
  w.w_t0.(i) <- sim_now;
  w.w_wall0.(i) <- now ()

let shard_end w i ~sim_now ~events =
  w.w_t1.(i) <- sim_now;
  w.w_events.(i) <- events;
  w.w_wall.(i) <- now () - w.w_wall0.(i)

let commit t w ~pooled ~merged =
  w.w_pooled <- pooled;
  w.w_merged <- merged;
  w.w_wall_total <- now () - w.w_start;
  let busy = ref 0 and ev_tot = ref 0 and ev_max = ref 0 and wall_busy = ref 0
  and wall_max = ref 0 in
  for i = 0 to t.shards - 1 do
    if w.w_limiters.(i) <> limiter_idle then begin
      incr busy;
      ev_tot := !ev_tot + w.w_events.(i);
      if w.w_events.(i) > !ev_max then ev_max := w.w_events.(i);
      wall_busy := !wall_busy + w.w_wall.(i);
      if w.w_wall.(i) > !wall_max then wall_max := w.w_wall.(i);
      t.shard_events.(i) <- t.shard_events.(i) + w.w_events.(i);
      t.shard_busy.(i) <- t.shard_busy.(i) + 1;
      t.shard_wall_ns.(i) <- t.shard_wall_ns.(i) + w.w_wall.(i);
      let l = w.w_limiters.(i) in
      if l >= 0 then t.limited_by.(l) <- t.limited_by.(l) + 1
      else if l = limiter_until then t.limited_until <- t.limited_until + 1
      else t.limited_unbounded <- t.limited_unbounded + 1
    end
  done;
  w.w_busy <- !busy;
  t.windows <- t.windows + 1;
  if pooled then t.pooled_windows <- t.pooled_windows + 1;
  t.events <- t.events + !ev_tot;
  t.crit_events <- t.crit_events + !ev_max;
  t.merged <- t.merged + merged;
  t.nulls <- t.nulls + w.w_nulls;
  t.wall_ns <- t.wall_ns + w.w_wall_total;
  (* Wall not covered by shard work: under pool dispatch shards overlap,
     so the max covers them; inline they serialize, so the sum does.
     What remains is barrier sync + merge + dispatch overhead. *)
  let covered = if pooled then !wall_max else !wall_busy in
  t.barrier_ns <- t.barrier_ns + max 0 (w.w_wall_total - covered);
  if !busy >= 2 && !ev_tot > 0 then
    Stats.Histogram.add t.imbalance
      (100. *. float_of_int (!ev_max * !busy) /. float_of_int !ev_tot);
  if t.kept < t.cap then begin
    t.recs <- w :: t.recs;
    t.kept <- t.kept + 1
  end
  else t.dropped <- t.dropped + 1

(* {1 Merging} *)

let merge ~into b =
  if into.shards <> b.shards then invalid_arg "Telemetry.merge: shard counts";
  into.windows <- into.windows + b.windows;
  into.pooled_windows <- into.pooled_windows + b.pooled_windows;
  into.events <- into.events + b.events;
  into.crit_events <- into.crit_events + b.crit_events;
  into.merged <- into.merged + b.merged;
  into.nulls <- into.nulls + b.nulls;
  into.wall_ns <- into.wall_ns + b.wall_ns;
  into.barrier_ns <- into.barrier_ns + b.barrier_ns;
  for i = 0 to into.shards - 1 do
    into.shard_events.(i) <- into.shard_events.(i) + b.shard_events.(i);
    into.shard_busy.(i) <- into.shard_busy.(i) + b.shard_busy.(i);
    into.shard_wall_ns.(i) <- into.shard_wall_ns.(i) + b.shard_wall_ns.(i);
    into.limited_by.(i) <- into.limited_by.(i) + b.limited_by.(i)
  done;
  into.limited_until <- into.limited_until + b.limited_until;
  into.limited_unbounded <- into.limited_unbounded + b.limited_unbounded;
  Stats.Histogram.merge ~into:into.imbalance b.imbalance;
  List.iter
    (fun w ->
      if into.kept < into.cap then begin
        into.recs <- w :: into.recs;
        into.kept <- into.kept + 1
      end
      else into.dropped <- into.dropped + 1)
    (List.rev b.recs);
  into.dropped <- into.dropped + b.dropped

let merge_groups ts =
  let out = ref [] in
  List.iter
    (fun b ->
      match List.find_opt (fun m -> m.shards = b.shards) !out with
      | Some m -> merge ~into:m b
      | None ->
          let m = make ~cap:b.cap ~shards:b.shards () in
          merge ~into:m b;
          out := !out @ [ m ])
    ts;
  !out

(* {1 Report} *)

let pct num den = if den <= 0 then 0.0 else 100.0 *. float_of_int num /. float_of_int den

let pp ppf t =
  let open Format in
  fprintf ppf "== shard telemetry (K=%d) ==@." t.shards;
  fprintf ppf "windows              : %d  (pooled %d, %.1f%%)@." t.windows
    t.pooled_windows (pct t.pooled_windows t.windows);
  fprintf ppf "events               : %d@." t.events;
  fprintf ppf "cross-shard merged   : %d msgs   null advertisements: %d@."
    t.merged t.nulls;
  fprintf ppf "wall                 : %.6f s  (barrier/merge %.6f s, %.1f%%)@."
    (float_of_int t.wall_ns /. 1e9)
    (float_of_int t.barrier_ns /. 1e9)
    (pct t.barrier_ns t.wall_ns);
  if t.dropped > 0 then
    fprintf ppf "window records       : %d kept, %d dropped (cap %d; aggregates above are complete)@."
      t.kept t.dropped t.cap;
  fprintf ppf "@.per-shard:@.";
  fprintf ppf "  %-6s %-10s %-10s %-8s %-10s@." "shard" "busy-wins" "events"
    "share" "wall(s)";
  for i = 0 to t.shards - 1 do
    fprintf ppf "  %-6d %-10d %-10d %-8s %-10.6f@." i t.shard_busy.(i)
      t.shard_events.(i)
      (Printf.sprintf "%.1f%%" (pct t.shard_events.(i) t.events))
      (float_of_int t.shard_wall_ns.(i) /. 1e9)
  done;
  let imb = t.imbalance in
  if Stats.Histogram.count imb > 0 then
    fprintf ppf
      "  imbalance (per-window max/mean, busy>=2): mean %.2fx  p50 %.2fx  \
       p90 %.2fx  p99 %.2fx@."
      (Stats.Histogram.mean imb /. 100.)
      (Stats.Histogram.percentile imb 50. /. 100.)
      (Stats.Histogram.percentile imb 90. /. 100.)
      (Stats.Histogram.percentile imb 99. /. 100.)
  else fprintf ppf "  imbalance: no windows with >= 2 busy shards@.";
  fprintf ppf "@.limiter attribution (what bounded each busy shard's window):@.";
  let total_busy = Array.fold_left ( + ) 0 t.shard_busy in
  fprintf ppf "  %-10s %-8s %s@." "limiter" "count" "share";
  List.iter
    (fun (l, c) ->
      fprintf ppf "  %-10s %-8d %.1f%%@." (limiter_name l) c (pct c total_busy))
    (limiter_counts t);
  fprintf ppf
    "@.critical path: %d events -> speedup bound %.2fx over %d shards@."
    t.crit_events (speedup_bound t) t.shards;
  fprintf ppf "  (total work / sum of per-window max shard work)@."

let pp_groups ppf ts =
  match merge_groups ts with
  | [] ->
      Format.fprintf ppf
        "== shard telemetry ==@.no sharded groups ran (telemetry covers \
         multi-shard groups only)@."
  | groups -> List.iter (fun g -> pp ppf g) groups

(* {1 Chrome lanes}

   One pid per shard, window spans on each busy shard's lane, plus a
   window + barrier span on the global lane.  Timestamps are wall-clock
   nanoseconds since the group's epoch, scaled so the viewer's
   microsecond axis reads real wall microseconds (the exporter divides
   "ps" by 1e6; ns * 1000 / 1e6 = us).  Install/uninstall of the private
   sink resets run-local allocators, so export only between runs. *)

let to_sink t =
  let cap = max 16 ((t.kept * (t.shards + 2)) + 16) in
  let s = Trace.make ~max_events:cap () in
  let ts_of ns = max 0 (ns - t.epoch) * 1000 in
  Trace.with_sink s (fun () ->
      List.iter
        (fun w ->
          let wts = ts_of w.w_start in
          Trace.complete ~cat:"par" ~name:"window" ~ts:wts
            ~dur:(w.w_wall_total * 1000)
            ~args:
              [
                ("seq", Trace.I w.w_seq);
                ("busy", Trace.I w.w_busy);
                ("merged", Trace.I w.w_merged);
                ("nulls", Trace.I w.w_nulls);
                ("dispatch", Trace.S (if w.w_pooled then "pool" else "inline"));
              ]
            ();
          let last_end = ref 0 in
          for i = 0 to t.shards - 1 do
            if w.w_limiters.(i) <> limiter_idle then begin
              let e = ts_of w.w_wall0.(i) + (w.w_wall.(i) * 1000) in
              if e > !last_end then last_end := e;
              Trace.complete ~cat:"par" ~name:"shard" ~tile:i ~act:0
                ~ts:(ts_of w.w_wall0.(i))
                ~dur:(w.w_wall.(i) * 1000)
                ~args:
                  [
                    ("events", Trace.I w.w_events.(i));
                    ("sim_t0", Trace.I w.w_t0.(i));
                    ("sim_t1", Trace.I w.w_t1.(i));
                    ( "bound",
                      if w.w_bounds.(i) = max_int then Trace.S "inf"
                      else Trace.I w.w_bounds.(i) );
                    ("limiter", Trace.S (limiter_name w.w_limiters.(i)));
                  ]
                ()
            end
          done;
          let wend = wts + (w.w_wall_total * 1000) in
          if wend > !last_end && w.w_busy > 0 then
            Trace.instant ~cat:"par" ~name:"barrier" ~ts:!last_end
              ~args:[ ("gap_ns", Trace.I ((wend - !last_end) / 1000)) ]
              ())
        (recent t));
  s

let write_chrome path t = Chrome.write_file path (to_sink t)
