(* Layer probes: one public function of a layer, timed alone in a loop.
   Each probe reports median host ns per call over [batches] batches and
   words allocated per call (minor + major - promoted, so the DRAM
   backing a platform allocates directly in the major heap counts too).
   Only the traced run executes them. *)

module Engine = M3v_sim.Engine
module Event_queue = M3v_sim.Event_queue
module Mono = M3v_par.Mono
module Noc = M3v_noc.Noc
module Topology = M3v_noc.Topology
module Dtu = M3v_dtu.Dtu
module Dram = M3v_dtu.Dram
module Ep = M3v_dtu.Ep
module Msg = M3v_dtu.Msg
module Platform = M3v_tile.Platform
module Core_model = M3v_tile.Core_model

let batches = 5

type result = { ns_per_call : float; words_per_call : float }

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [measure ~calls f] times [calls] calls of [f] per batch; [between]
   runs untimed before each batch. *)
let measure ?(between = ignore) ~calls f =
  let batch () =
    between ();
    let w0 = Gc.allocated_bytes () in
    let t0 = Mono.now_ns () in
    for _ = 1 to calls do
      f ()
    done;
    let ns = Int64.to_float (Mono.elapsed_ns ~since:t0) in
    let words = (Gc.allocated_bytes () -. w0) /. 8.0 in
    (ns /. float_of_int calls, words /. float_of_int calls)
  in
  let runs = List.init batches (fun _ -> batch ()) in
  {
    ns_per_call = median (List.map fst runs);
    words_per_call = median (List.map snd runs);
  }

(* [Event_queue.push2] + [drop_min] at a fixed depth: the engine's
   per-event queue cost with as many events pending as the workload had. *)
let queue ~depth =
  let q = Event_queue.create2 () in
  let handler () = () in
  let seed = ref 12345 in
  let gap () =
    seed := (!seed * 1103515245 + 12345) land 0x3fffffff;
    1 + (!seed mod 100_000)
  in
  for _ = 1 to max 1 depth do
    Event_queue.push2 q ~time:(gap ()) handler 0
  done;
  measure ~calls:200_000 (fun () ->
      let now = Event_queue.next_time q in
      Event_queue.drop_min q;
      Event_queue.push2 q ~time:(now + gap ()) handler 0)

(* One 64-byte packet across the 2x2 star mesh, dispatched by the engine. *)
let noc_send () =
  let eng = Engine.create () in
  let noc = Noc.create eng (Topology.star_mesh_2x2 ~tiles:4) in
  let delivered = ref 0 in
  let on_delivered () = incr delivered in
  let r =
    measure ~calls:50_000 (fun () ->
        Noc.send noc ~src:0 ~dst:3 ~bytes:64 ~on_delivered;
        ignore (Engine.run eng))
  in
  if !delivered <> batches * 50_000 then failwith "noc probe: packets lost";
  r

type Msg.data += Probe_msg

(* A full RPC on a two-tile platform: send, fetch, reply, fetch the reply
   and ack it, with the engine dispatching each transfer. *)
let dtu_rpc () =
  let eng = Engine.create () in
  let p =
    Platform.create ~virtualized:true
      ~tiles:[ Platform.Proc Core_model.boom; Platform.Proc Core_model.boom ]
      eng ()
  in
  let d0 = Platform.dtu p 0 and d1 = Platform.dtu p 1 in
  Dtu.ext_config d1 ~ep:1 ~owner:7 (Ep.recv_config ~slots:4 ~slot_size:256 ());
  Dtu.ext_config d0 ~ep:1 ~owner:0
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~label:1 ~max_msg_size:240 ~credits:1 ());
  Dtu.ext_config d0 ~ep:2 ~owner:0 (Ep.recv_config ~slots:1 ~slot_size:256 ());
  ignore (Dtu.switch_act d0 ~next:0);
  ignore (Dtu.switch_act d1 ~next:7);
  let ok = function Ok () -> () | Error _ -> failwith "dtu probe: command failed" in
  let fetched d ~ep =
    match Dtu.fetch d ~ep with
    | Ok (Some m) -> m
    | _ -> failwith "dtu probe: no message"
  in
  measure ~calls:20_000 (fun () ->
      Dtu.send d0 ~ep:1 ~reply_ep:2 ~msg_size:64 Probe_msg ~k:ok;
      ignore (Engine.run eng);
      let req = fetched d1 ~ep:1 in
      Dtu.reply d1 ~recv_ep:1 ~to_msg:req ~msg_size:64 Probe_msg ~k:ok;
      ignore (Engine.run eng);
      ok (Dtu.ack d0 ~ep:2 (fetched d0 ~ep:2));
      ignore (Engine.run eng))

(* A 4 KiB DRAM read, copying out ([read]) and into a caller buffer
   ([read_into]); reported per KiB. *)
let dram_reads () =
  let dram = Dram.create ~size:(1 lsl 20) () in
  let len = 4096 in
  let dst = Bytes.create len in
  let off = ref 0 in
  let next () =
    off := (!off + len) land ((1 lsl 20) - 1);
    !off
  in
  let per_kib r =
    { ns_per_call = r.ns_per_call /. 4.0; words_per_call = r.words_per_call /. 4.0 }
  in
  let read = measure ~calls:20_000 (fun () -> ignore (Dram.read dram ~off:(next ()) ~len)) in
  let read_into =
    measure ~calls:20_000 (fun () -> Dram.read_into dram ~off:(next ()) ~dst ~dst_off:0 ~len)
  in
  (per_kib read, per_kib read_into)

(* [Platform.create] for the gem5 spec (12 x86 tiles, 256 MiB DRAM) and
   the FPGA spec (9 tiles, two 64 MiB DRAMs). *)
let platform_create ~spec ~virtualized =
  measure ~between:Gc.full_major ~calls:1 (fun () ->
      ignore (Platform.create ~virtualized ~tiles:spec (Engine.create ()) ()))

type all = {
  queue : result;
  noc : result;
  dtu : result;
  dram_read : result;
  dram_read_into : result;
  create_gem5 : result;
  create_fpga : result;
}

let run ~queue_depth =
  let queue = queue ~depth:queue_depth in
  let noc = noc_send () in
  let dtu = dtu_rpc () in
  let dram_read, dram_read_into = dram_reads () in
  let create_gem5 = platform_create ~spec:(Platform.gem5_spec ()) ~virtualized:false in
  let create_fpga = platform_create ~spec:(Platform.fpga_spec ()) ~virtualized:true in
  { queue; noc; dtu; dram_read; dram_read_into; create_gem5; create_fpga }
