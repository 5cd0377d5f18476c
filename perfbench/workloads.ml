(* The benchmark's workloads, rebuilt from the public functions the
   [Exp_fig9], [Exp_fig10] and [Exp_load] experiments use, so that the
   harness can time System construction apart from the run.  The self
   test checks that each rebuild reproduces its experiment exactly. *)

open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Time = M3v_sim.Time
module Rng = M3v_sim.Rng
module Engine = M3v_sim.Engine
module Msg = M3v_dtu.Msg
module Dtu = M3v_dtu.Dtu
module Platform = M3v_tile.Platform
module Controller = M3v_kernel.Controller
module A = M3v_mux.Act_api
module Runtime = M3v_mux.Runtime
module Trace = M3v_apps.Trace
module Traceplayer = M3v_apps.Traceplayer
module Ycsb = M3v_apps.Ycsb
module Cloud = M3v_apps.Cloud
module Kvserv = M3v_apps.Kvserv
module M3fs = M3v_os.M3fs
module Fs_client = M3v_os.Fs_client
module Fs_proto = M3v_os.Fs_proto
module Net_client = M3v_os.Net_client
module Nic = M3v_os.Nic
module Linux_sim = M3v_linux.Linux_sim
module Lx = M3v_linux.Lx_api
module Fleet = M3v_load.Fleet
module Slo = M3v_load.Slo
module System = M3v.System
module Services = M3v.Services
module Exp_common = M3v.Exp_common
module Exp_load = M3v.Exp_load
module H = Harness

(* The seed whose inputs the benchmark records a digest for.  It is the
   seed [Exp_fig10] derives its request streams from, so on this seed
   [ycsb_cloud] replays Fig 10's inputs. *)
let default_seed = 77

let variant_name = function System.M3v -> "M3v" | System.M3x -> "M3x"

(* ---- ctxsw_scale: the Fig 9 set-up ---- *)

let ctxsw_tiles = [ 1; 2; 4 ]
let ctxsw_runs = 1
let ctxsw_warmup = 1

(* The seed jitters the compute burst between calls by up to +-10%: the
   call sequence, and with it the switch pattern, stays the paper's. *)
let ctxsw_traces ~seed =
  let rng = Rng.create ~seed in
  let jitter base = base * (90 + Rng.int rng 21) / 100 in
  let find = Trace.find_trace ~compute_per_op:(jitter 28_000) () in
  let sqlite = Trace.sqlite_trace ~compute_per_op:(jitter 120_000) () in
  [ find; sqlite ]

(* One Fig 9 point ([Exp_fig9.throughput]): one traceplayer and one m3fs
   per user tile on the gem5 platform.  Returns the system throughput and
   every player's results. *)
let ctxsw_point h ~variant ~trace ~tiles ~runs ~warmup =
  let s = H.sim h ~group:(variant_name variant) in
  let _sys, players =
    H.system s
      ~create:(fun () ->
        System.create
          ~spec:(Platform.gem5_spec ~user_tiles:tiles ())
          ~variant ())
      ~wire:(fun sys ->
        List.init tiles (fun i ->
            let tile = 1 + i in
            let fs = Services.make_fs sys ~tile ~blocks:2048 () in
            Traceplayer.setup_fs (M3fs.core fs.Services.fs_handle) trace;
            let res = Traceplayer.make_results () in
            let client_box = ref None in
            let aid, env =
              System.spawn sys ~tile ~name:(Printf.sprintf "player%d" i)
                (Traceplayer.program res
                   ~client:(lazy (Option.get !client_box))
                   ~trace ~runs ~warmup)
            in
            client_box := Some (fs.Services.connect aid env);
            res))
  in
  let throughput =
    List.fold_left
      (fun acc res ->
        let times = res.Traceplayer.run_times in
        if res.Traceplayer.runs_completed = 0 || times = [] then acc
        else
          let total = List.fold_left Time.add Time.zero times in
          acc +. (float_of_int (List.length times) /. Time.to_s total))
      0.0 players
  in
  (throughput, players)

let ctxsw_scale h ~seed =
  let traces = ctxsw_traces ~seed in
  List.iter
    (fun tiles ->
      List.iter
        (fun trace ->
          List.iter
            (fun variant ->
              let label =
                Printf.sprintf "%s/%s/%d" (variant_name variant)
                  trace.Trace.name tiles
              in
              H.guard h ~label (fun () ->
                  let throughput, players =
                    ctxsw_point h ~variant ~trace ~tiles ~runs:ctxsw_runs
                      ~warmup:ctxsw_warmup
                  in
                  if h.H.traced then
                    H.add_int h "apps.player_runs"
                      (List.fold_left
                         (fun acc r -> acc + r.Traceplayer.runs_completed)
                         0 players);
                  let problems =
                    List.concat
                      (List.mapi
                         (fun i r ->
                           if
                             r.Traceplayer.runs_completed = ctxsw_runs
                             && List.length r.Traceplayer.run_times
                                = ctxsw_runs
                           then []
                           else
                             [
                               Printf.sprintf "player%d completed %d of %d runs"
                                 i r.Traceplayer.runs_completed ctxsw_runs;
                             ])
                         players)
                  in
                  let result =
                    String.concat " "
                      (Printf.sprintf "%h" throughput
                      :: List.map
                           (fun r ->
                             String.concat ","
                               (List.map string_of_int r.Traceplayer.run_times))
                           players)
                  in
                  H.outcome h ~label ~result problems))
            [ System.M3v; System.M3x ])
        traces)
    ctxsw_tiles

(* ---- ycsb_cloud: the Fig 10 set-up ---- *)

let ycsb_mixes = [ Ycsb.Scan_heavy; Ycsb.Insert_heavy ]
let ycsb_records = 200
let ycsb_operations = 2000
let ycsb_reps = 1
let peer = (1, 9000)

(* [Exp_fig10.workload_bytes] with the benchmark seed in place of its
   fixed 77: the encoded request file and the op list it holds. *)
let ycsb_requests ~seed ~records ~operations mix =
  let rng = Rng.create ~seed:(seed + Hashtbl.hash (Ycsb.workload_name mix)) in
  let load = Ycsb.load ~records ~value_size:1024 rng in
  let ops = Ycsb.ops mix ~records ~count:operations rng in
  (Cloud.encode_workload ~load ~ops, ops)

type ycsb_config = Iso | Shared | Linux

let config_name = function
  | Iso -> "M3v (isolated)"
  | Shared -> "M3v (shared)"
  | Linux -> "Linux"

(* [Exp_fig10.m3v_samples]: per rep, (elapsed, fs + net busy time) and
   the database's run report. *)
let ycsb_m3v h ~shared ~reps ~requests =
  let s = H.sim h ~group:(config_name (if shared then Shared else Iso)) in
  let samples = ref [] and reports = ref [] in
  let _sys, () =
    H.system s
      ~create:(fun () -> System.create ~variant:System.M3v ())
      ~wire:(fun sys ->
        let nic_tile = Exp_common.boom_tile_a in
        let db_tile = if shared then nic_tile else Exp_common.boom_tile_b in
        let fs_tile = if shared then nic_tile else Exp_common.boom_tile_c in
        let pager_tile = if shared then nic_tile else Exp_common.boom_tile_d in
        ignore (System.with_pager sys ~tile:pager_tile);
        let fs = Services.make_fs sys ~tile:fs_tile ~blocks:8192 () in
        let net = Services.make_net sys ~host:Nic.Sink () in
        Services.preload_file sys fs ~path:"/requests.bin" requests;
        let tiles = List.sort_uniq compare [ nic_tile; db_tile; fs_tile ] in
        let sys_now () =
          List.fold_left
            (fun acc tile ->
              acc +. Runtime.busy_of_bucket (System.runtime sys ~tile) "sys")
            0.0 tiles
        in
        let last_sys = ref 0.0 in
        let vfs_box = ref None and udp_box = ref None in
        let db, db_env =
          System.spawn sys ~tile:db_tile ~name:"db" ~premap:false (fun _ ->
              Cloud.db_program
                ~vfs:(Option.get !vfs_box)
                ~udp:(Option.get !udp_box)
                ~requests_path:"/requests.bin" ~db_dir_base:"/db"
                ~results_to:peer ~reps
                ~on_rep:(fun report ->
                  let now = sys_now () in
                  samples :=
                    (report.Cloud.elapsed, int_of_float (now -. !last_sys))
                    :: !samples;
                  reports := report :: !reports;
                  last_sys := now))
        in
        vfs_box := Some (Fs_client.to_vfs (fs.Services.connect db db_env));
        udp_box := Some (Net_client.to_udp (net.Services.net_connect db db_env)))
  in
  (List.rev !samples, List.rev !reports)

(* [Exp_fig10.linux_samples]: the same database on the Linux model. *)
let ycsb_linux h ~reps ~requests =
  let s = H.sim h ~group:(config_name Linux) in
  let samples = ref [] and reports = ref [] in
  let engine, lx =
    H.span s H.Create (fun () ->
        let engine = Engine.create () in
        let lx = Linux_sim.create ~tmpfs_blocks:32768 engine () in
        Linux_sim.attach_nic lx (Nic.create ~engine ~host:Nic.Sink ());
        (engine, lx))
  in
  H.span s H.Wire (fun () ->
      Linux_sim.preload_file lx ~path:"/requests.bin" requests;
      let pid_box = ref (-1) in
      let last_sys = ref Time.zero in
      pid_box :=
        Linux_sim.spawn lx ~name:"db"
          (Cloud.db_program ~vfs:Lx.vfs ~udp:Lx.udp
             ~requests_path:"/requests.bin" ~db_dir_base:"/db"
             ~results_to:peer ~reps ~on_rep:(fun report ->
               let _u, sys = Linux_sim.rusage lx !pid_box in
               samples := (report.Cloud.elapsed, Time.sub sys !last_sys) :: !samples;
               reports := report :: !reports;
               last_sys := sys)));
  H.span s H.Boot (fun () -> Linux_sim.boot lx);
  H.run_engine s engine;
  (List.rev !samples, List.rev !reports)

let op_counts (r : Cloud.run_report) =
  Cloud.(r.reads, r.inserts, r.updates, r.scans, r.scan_items)

(* The generated mix: (reads, inserts, updates, scans). *)
let expected_mix ops =
  List.fold_left
    (fun (r, i, u, s) -> function
      | Ycsb.Read _ -> (r + 1, i, u, s)
      | Ycsb.Insert _ -> (r, i + 1, u, s)
      | Ycsb.Update _ -> (r, i, u + 1, s)
      | Ycsb.Scan _ -> (r, i, u, s + 1))
    (0, 0, 0, 0) ops

let ycsb_cloud h ~seed =
  List.iter
    (fun mix ->
      let requests, ops =
        ycsb_requests ~seed ~records:ycsb_records ~operations:ycsb_operations mix
      in
      let expected = expected_mix ops in
      (* The first configuration's op counts are the reference the other
         two must equal. *)
      let reference = ref None in
      List.iter
        (fun config ->
          let label =
            Printf.sprintf "%s/%s" (Ycsb.workload_name mix) (config_name config)
          in
          H.guard h ~label (fun () ->
              let samples, reports =
                match config with
                | Iso -> ycsb_m3v h ~shared:false ~reps:ycsb_reps ~requests
                | Shared -> ycsb_m3v h ~shared:true ~reps:ycsb_reps ~requests
                | Linux -> ycsb_linux h ~reps:ycsb_reps ~requests
              in
              let counts = List.map op_counts reports in
              if h.H.traced then
                List.iter
                  (fun (r, i, u, s, _) -> H.add_int h "apps.ycsb_ops" (r + i + u + s))
                  counts;
              let problems =
                (if List.length reports = ycsb_reps then []
                 else
                   [ Printf.sprintf "%d of %d reps reported" (List.length reports) ycsb_reps ])
                @ List.filter_map
                    (fun (r, i, u, s, _) ->
                      if (r, i, u, s) = expected then None
                      else
                        Some
                          (Printf.sprintf "ops r/i/u/s %d/%d/%d/%d differ from the generated mix"
                             r i u s))
                    counts
                @
                match !reference with
                | None ->
                    reference := Some counts;
                    []
                | Some c when c = counts -> []
                | Some _ -> [ "op counts differ from the first configuration's" ]
              in
              let result =
                String.concat " "
                  (List.map
                     (fun ((e, sy), (r, i, u, s, items)) ->
                       Printf.sprintf "%d,%d,%d,%d,%d,%d,%d" e sy r i u s items)
                     (List.combine samples counts))
              in
              H.outcome h ~label ~result problems))
        [ Iso; Shared; Linux ])
    ycsb_mixes

(* ---- kv_openloop: the load harness ---- *)

(* The default fleet (100k clients, 8 drivers, default mix) at one load
   below the knee and one above, each over a long window. *)
let kv_config ~seed =
  {
    Exp_load.default with
    seed;
    fracs = [ 0.25; 1.25 ];
    duration_ms = 20_000;
  }

(* [Exp_load]'s layout and constants. *)
let kv_tile = Exp_common.boom_tile_b
let fs_tile = Exp_common.boom_tile_c
let driver_tiles = [| 4; 5; 6; 7 |]
let kv_credits = 2
let file_path = "/load.dat"
let file_len = 65_536
let chunk = 64
let udp_peer = (1, 7000)
let key_name k = Printf.sprintf "k%06d" k
let put_value k = Bytes.init 64 (fun j -> Char.chr ((k + j) land 0xff))

(* Wire one driver activity: its fs and udp clients and a send gate to
   the key-value server's shared MPMC gate. *)
let kv_driver sys fs net ~kv_aid ~kv_rsel fleet_cfg samples i =
  let ctrl = System.controller sys in
  let driver = Fleet.make_driver fleet_cfg i in
  let tile = driver_tiles.(i mod Array.length driver_tiles) in
  let fs_box = ref None and udp_box = ref None in
  let kv_sgate = ref (-1) and kv_reply = ref (-1) in
  let record s = samples.(i) <- s :: samples.(i) in
  let aid, env =
    System.spawn sys ~tile ~name:(Printf.sprintf "driver%d" i) (fun _ ->
        let fsc = Option.get !fs_box in
        let udp = Option.get !udp_box in
        let* sock = udp.Net_client.u_socket () in
        let* () = udp.Net_client.u_bind sock (6000 + i) in
        let* fd = Fs_client.open_ fsc file_path Fs_proto.rdonly in
        let fd =
          match fd with
          | Ok fd -> fd
          | Error e -> failwith ("kv_openloop: open " ^ file_path ^ ": " ^ e)
        in
        let kv_call req =
          let* rep =
            A.call ~sgate:!kv_sgate ~reply_ep:!kv_reply
              ~size:(Kvserv.req_size req) (Kvserv.Kv_req req)
          in
          Proc.return
            (match rep.Msg.data with
            | Kvserv.Kv_rep (Kvserv.Failed _) -> false
            | Kvserv.Kv_rep _ -> true
            | _ -> false)
        in
        let issue op =
          let key = op.Fleet.op_key in
          match op.Fleet.op_kind with
          | Fleet.Kv_get -> kv_call (Kvserv.Get (key_name key))
          | Fleet.Kv_put -> kv_call (Kvserv.Put (key_name key, put_value key))
          | Fleet.Fs_read ->
              let off = key mod (file_len / chunk) * chunk in
              let* data = Fs_client.read_inline fsc ~fd ~off ~len:chunk in
              Proc.return (Bytes.length data = chunk)
          | Fleet.Udp_echo ->
              let* () =
                udp.Net_client.u_sendto sock udp_peer
                  (Bytes.make 32 (Char.chr (0x20 + (key land 0x3f))))
              in
              let* _src, _data = udp.Net_client.u_recvfrom sock in
              Proc.return true
        in
        Fleet.driver_program driver ~issue ~record ())
  in
  fs_box := Some (fs.Services.connect aid env);
  udp_box := Some (Net_client.to_udp (net.Services.net_connect aid env));
  let ssel =
    Controller.host_new_sgate ctrl ~owner:aid ~rgate_of:kv_aid ~rgate_sel:kv_rsel
      ~label:i ~credits:kv_credits ()
  in
  kv_sgate := Controller.host_activate ctrl ~act:aid ~sel:ssel ();
  let rsel = Controller.host_new_rgate ctrl ~act:aid ~slots:2 ~slot_size:512 in
  kv_reply := Controller.host_activate ctrl ~act:aid ~sel:rsel ()

(* [Exp_load.run_step] without its private trace sink, so [st_segments]
   stays empty.  The fleet, services and KV server are wired exactly as
   there. *)
let kv_step h (cfg : Exp_load.config) ~frac =
  let warmup_ps = Time.ms cfg.warmup_ms in
  let duration_ps = Time.ms cfg.duration_ms in
  let fleet_cfg =
    {
      Fleet.clients = cfg.clients;
      drivers = cfg.drivers;
      rate_per_s = cfg.rate_per_s *. frac;
      loop =
        (if cfg.closed then
           Fleet.Closed_loop
             {
               think_ps =
                 max 1 (int_of_float (float_of_int (Time.ms cfg.think_ms) /. frac));
             }
         else Fleet.Open_loop);
      arrivals = cfg.arrivals;
      mix = cfg.mix;
      skew = cfg.skew;
      keys = cfg.keys;
      warmup_ps;
      duration_ps;
      seed = cfg.seed;
    }
  in
  let nd = cfg.drivers in
  let samples = Array.make nd [] in
  let s = H.sim h ~group:(Printf.sprintf "load x%.2f" frac) in
  let sys, () =
    H.system s
      ~create:(fun () -> System.create ~variant:System.M3v ())
      ~wire:(fun sys ->
        let ctrl = System.controller sys in
        let fs = Services.make_fs sys ~tile:fs_tile ~blocks:4096 () in
        let net =
          Services.make_net sys ~host:(Nic.Echo { turnaround = Time.us 40 }) ()
        in
        Services.preload_file sys fs ~path:file_path
          (Bytes.init file_len (fun i -> Char.chr (i land 0xff)));
        let kv_vfs = ref None and kv_rgate = ref (-1) in
        let kv_aid, kv_env =
          System.spawn sys ~tile:kv_tile ~name:"kvserv"
            (Kvserv.program ~vfs:kv_vfs ~rgate:kv_rgate ())
        in
        kv_vfs := Some (Fs_client.to_vfs (fs.Services.connect kv_aid kv_env));
        let kv_rsel =
          Controller.host_new_mpmc_rgate ctrl ~act:kv_aid
            ~slots:(kv_credits * nd) ~slot_size:512 ~ack_batch:4 ()
        in
        kv_rgate := Controller.host_activate ctrl ~act:kv_aid ~sel:kv_rsel ();
        for i = 0 to nd - 1 do
          kv_driver sys fs net ~kv_aid ~kv_rsel fleet_cfg samples i
        done)
  in
  let stalls, sends =
    List.fold_left
      (fun (st, sd) tile ->
        let d = Dtu.stats (Platform.dtu (System.platform sys) tile) in
        (st + d.Dtu.credit_stalls, sd + d.Dtu.sends))
      (0, 0)
      (Platform.processing_tiles (System.platform sys))
  in
  let all = List.concat_map List.rev (Array.to_list samples) in
  let window_end = warmup_ps + duration_ps in
  let window_s = float_of_int duration_ps /. 1e12 in
  let in_window =
    List.filter (fun s -> s.Fleet.s_ok && s.Fleet.s_done <= window_end) all
  in
  let lat_us s = float_of_int (s.Fleet.s_done - s.Fleet.s_sched) /. 1e6 in
  let rows =
    List.filter_map
      (fun kind ->
        Slo.row_of_latencies ~label:(Fleet.kind_name kind)
          (List.filter_map
             (fun s -> if s.Fleet.s_kind = kind then Some (lat_us s) else None)
             in_window))
      Fleet.all_kinds
    @ Option.to_list (Slo.row_of_latencies ~label:"all" (List.map lat_us in_window))
  in
  let p99 =
    match List.rev rows with
    | r :: _ when r.Slo.label = "all" -> r.Slo.p99_us
    | _ -> 0.0
  in
  let scheduled = List.length all in
  let completed = List.length in_window in
  {
    Exp_load.st_frac = frac;
    st_offered = float_of_int scheduled /. window_s;
    st_scheduled = scheduled;
    st_completed = completed;
    st_errors = List.length (List.filter (fun s -> not s.Fleet.s_ok) all);
    st_goodput = float_of_int completed /. window_s;
    st_rows = rows;
    st_p99_us = p99;
    st_segments = [];
    st_credit_stalls = stalls;
    st_sends = sends;
  }

let kv_openloop h ~seed =
  let cfg = kv_config ~seed in
  List.iter
    (fun frac ->
      let label = Printf.sprintf "load x%.2f" frac in
      H.guard h ~label (fun () ->
          let st = kv_step h cfg ~frac in
          if h.H.traced then begin
            H.add_int h "load.scheduled" st.Exp_load.st_scheduled;
            H.add_int h "load.completed" st.Exp_load.st_completed;
            H.add_int h "load.errors" st.Exp_load.st_errors
          end;
          let problems =
            (if st.Exp_load.st_errors = 0 then []
             else [ Printf.sprintf "%d requests failed" st.Exp_load.st_errors ])
            @
            if st.Exp_load.st_completed <= st.Exp_load.st_scheduled then []
            else [ "more requests completed than were scheduled" ]
          in
          let result =
            String.concat " "
              (Printf.sprintf "%d,%d,%d,%h,%d,%d" st.Exp_load.st_scheduled
                 st.Exp_load.st_completed st.Exp_load.st_errors st.Exp_load.st_p99_us
                 st.Exp_load.st_credit_stalls st.Exp_load.st_sends
              :: List.map
                   (fun r ->
                     Printf.sprintf "%s:%d:%h:%h:%h" r.Slo.label r.Slo.n r.Slo.mean_us
                       r.Slo.p50_us r.Slo.max_us)
                   st.Exp_load.st_rows)
          in
          H.outcome h ~label ~result problems))
    cfg.Exp_load.fracs

type t = { name : string; repeat : H.t -> seed:int -> unit }

let all =
  [
    { name = "ctxsw_scale"; repeat = ctxsw_scale };
    { name = "ycsb_cloud"; repeat = ycsb_cloud };
    { name = "kv_openloop"; repeat = kv_openloop };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Digest of every simulated result of one repeat on [default_seed].  A
   change that is meant to alter simulated results must update it. *)
let recorded_digest = function
  | "ctxsw_scale" -> Some "df08beefa91dd64a69f869aa09cc98ff"
  | "ycsb_cloud" -> Some "694ba1fd51e528ba739a64b9b5244b8a"
  | "kv_openloop" -> Some "aa48db2bdd44857e081e97acfcfb5b96"
  | _ -> None
