open M3v_sim
open M3v_noc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_star_mesh_routes () =
  let topo = Topology.star_mesh_2x2 ~tiles:8 in
  check_int "tiles" 8 (Topology.tiles topo);
  check_int "routers" 4 (Topology.routers topo);
  (* Same tile: empty route. *)
  Alcotest.(check (list int)) "self route" [] (Topology.route topo ~src:3 ~dst:3);
  (* Tiles 0 and 4 share router 0: inject + eject only. *)
  check_int "same-router hops" 0 (Topology.hops topo ~src:0 ~dst:4);
  check_int "same-router route length" 2
    (List.length (Topology.route topo ~src:0 ~dst:4));
  (* Router 0 and router 3 are diagonal in the 2x2 mesh: two hops. *)
  check_int "diagonal hops" 2 (Topology.hops topo ~src:0 ~dst:3)

let test_route_endpoints_are_tile_links () =
  let topo = Topology.star_mesh_2x2 ~tiles:11 in
  for src = 0 to 10 do
    for dst = 0 to 10 do
      if src <> dst then begin
        let route = Topology.route topo ~src ~dst in
        check_bool "starts with injection" true (List.hd route = src);
        let last = List.nth route (List.length route - 1) in
        check_bool "ends with ejection" true (last = 11 + dst)
      end
    done
  done

let test_mesh_and_ring () =
  let mesh = Topology.mesh ~cols:3 ~rows:2 ~tiles:12 in
  check_int "mesh routers" 6 (Topology.routers mesh);
  (* Corner to corner in a 3x2 mesh: 3 hops. *)
  check_int "mesh diameter path" 3 (Topology.hops mesh ~src:0 ~dst:11);
  let ring = Topology.ring ~routers:6 ~tiles:6 in
  (* Opposite side of a 6-ring: 3 hops. *)
  check_int "ring opposite" 3 (Topology.hops ring ~src:0 ~dst:3)

let test_single_router () =
  let topo = Topology.single_router ~tiles:4 in
  check_int "hops always zero" 0 (Topology.hops topo ~src:0 ~dst:3);
  check_int "route = inject + eject" 2 (List.length (Topology.route topo ~src:0 ~dst:3))

(* An independent reference for the route table: from each router on the
   way, a BFS (neighbours in ascending order) picks the first hop toward
   the destination router.  The router graph is
   read back from the "rA->rB" link names; every constructor spreads tiles
   round-robin over the routers. *)
let reference_route topo ~src ~dst =
  let tiles = Topology.tiles topo and routers = Topology.routers topo in
  let edges =
    List.init
      (Topology.link_count topo - (2 * tiles))
      (fun i ->
        Scanf.sscanf
          (Topology.link_name topo ((2 * tiles) + i))
          "r%d->r%d"
          (fun a b -> (a, b)))
  in
  let neighbours r =
    List.sort compare (List.filter_map (fun (a, b) -> if a = r then Some b else None) edges)
  in
  let first_hop ~from ~target =
    let parent = Array.make routers (-1) in
    parent.(from) <- from;
    let queue = Queue.create () in
    Queue.add from queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if parent.(v) < 0 then begin
            parent.(v) <- u;
            Queue.add v queue
          end)
        (neighbours u)
    done;
    let rec back v = if parent.(v) = from then v else back parent.(v) in
    back target
  in
  let rec index_of x i = function
    | [] -> Alcotest.fail "edge missing"
    | y :: rest -> if x = y then i else index_of x (i + 1) rest
  in
  let r_dst = dst mod routers in
  let rec walk r =
    if r = r_dst then []
    else
      let next = first_hop ~from:r ~target:r_dst in
      ((2 * tiles) + index_of (r, next) 0 edges) :: walk next
  in
  if src = dst then [] else (src :: walk (src mod routers)) @ [ tiles + dst ]

let test_route_table_matches_bfs () =
  List.iter
    (fun (name, topo) ->
      let tiles = Topology.tiles topo in
      for src = 0 to tiles - 1 do
        for dst = 0 to tiles - 1 do
          let expect = reference_route topo ~src ~dst in
          let label = Printf.sprintf "%s %d->%d" name src dst in
          Alcotest.(check (list int)) label expect (Topology.route topo ~src ~dst);
          check_int (label ^ " hops")
            (max 0 (List.length expect - 2))
            (Topology.hops topo ~src ~dst)
        done
      done;
      Alcotest.check_raises (name ^ " hops out of range")
        (Invalid_argument "Topology.route: tile out of range") (fun () ->
          ignore (Topology.hops topo ~src:0 ~dst:tiles)))
    [
      ("star-mesh/4", Topology.star_mesh_2x2 ~tiles:4);
      ("star-mesh/12", Topology.star_mesh_2x2 ~tiles:12);
      ("mesh 3x2", Topology.mesh ~cols:3 ~rows:2 ~tiles:12);
      ("ring/5", Topology.ring ~routers:5 ~tiles:10);
      ("single router", Topology.single_router ~tiles:4);
    ]

let make_noc ?(tiles = 8) () =
  let eng = Engine.create () in
  let topo = Topology.star_mesh_2x2 ~tiles in
  (eng, Noc.create eng topo)

let test_delivery_time () =
  let eng, noc = make_noc () in
  let delivered_at = ref Time.zero in
  Noc.send noc ~src:0 ~dst:3 ~bytes:64 ~on_delivered:(fun () ->
      delivered_at := Engine.now eng);
  ignore (Engine.run eng);
  let expect = Noc.uncontended_latency noc ~src:0 ~dst:3 ~bytes:64 in
  check_int "matches uncontended estimate" expect !delivered_at;
  (* Tile-to-tile latency should be "dozens of nanoseconds" (paper 2.3). *)
  check_bool "latency below 100ns" true (!delivered_at < Time.ns 100);
  check_bool "latency above 10ns" true (!delivered_at > Time.ns 10)

let test_contention_serializes () =
  let eng, noc = make_noc () in
  let t1 = ref Time.zero and t2 = ref Time.zero in
  (* Two packets over the same links back to back: the second must wait. *)
  Noc.send noc ~src:0 ~dst:3 ~bytes:4096 ~on_delivered:(fun () -> t1 := Engine.now eng);
  Noc.send noc ~src:0 ~dst:3 ~bytes:4096 ~on_delivered:(fun () -> t2 := Engine.now eng);
  ignore (Engine.run eng);
  let solo = Noc.uncontended_latency noc ~src:0 ~dst:3 ~bytes:4096 in
  check_bool "first unaffected" true (!t1 = solo);
  check_bool "second delayed" true (!t2 > !t1);
  check_bool "second delayed by roughly one serialization" true
    (Time.sub !t2 !t1 >= Time.ns 500)

let test_disjoint_paths_parallel () =
  let eng, noc = make_noc () in
  (* Tiles 1 and 5 share router 1; tiles 2 and 6 share router 2; the two
     transfers use disjoint links and must not delay each other. *)
  let t1 = ref Time.zero and t2 = ref Time.zero in
  Noc.send noc ~src:1 ~dst:5 ~bytes:1024 ~on_delivered:(fun () -> t1 := Engine.now eng);
  Noc.send noc ~src:2 ~dst:6 ~bytes:1024 ~on_delivered:(fun () -> t2 := Engine.now eng);
  ignore (Engine.run eng);
  check_int "equal latency" !t1 !t2

let test_loopback () =
  let eng, noc = make_noc () in
  let t = ref Time.zero in
  Noc.send noc ~src:2 ~dst:2 ~bytes:64 ~on_delivered:(fun () -> t := Engine.now eng);
  ignore (Engine.run eng);
  check_bool "loopback is fast" true (!t <= Time.ns 10)

let test_stats () =
  let eng, noc = make_noc () in
  Noc.send noc ~src:0 ~dst:1 ~bytes:100 ~on_delivered:(fun () -> ());
  Noc.send noc ~src:1 ~dst:0 ~bytes:32 ~on_delivered:(fun () -> ());
  ignore (Engine.run eng);
  let s = Noc.stats noc in
  check_int "packets" 2 s.Noc.packets;
  check_int "payload bytes" 132 s.Noc.payload_bytes;
  (* 100B -> 7 flits + 1 header; 32B -> 2 + 1. *)
  check_int "flits" 11 s.Noc.total_flits;
  Noc.reset_stats noc;
  check_int "reset" 0 (Noc.stats noc).Noc.packets

(* Routing walks the precomputed table: once the event queue is sized, a
   cross-mesh send allocates nothing (trace and metrics off). *)
let test_send_allocates_nothing () =
  let eng, noc = make_noc () in
  let on_delivered () = () in
  let batch () =
    for _ = 1 to 1000 do
      Noc.send noc ~src:0 ~dst:3 ~bytes:64 ~on_delivered
    done
  in
  batch ();
  ignore (Engine.run eng);
  let before = Gc.minor_words () in
  batch ();
  let after = Gc.minor_words () in
  ignore (Engine.run eng);
  check_int "minor words per send" 0 (int_of_float ((after -. before) /. 1000.))

let test_bandwidth_larger_packets_slower =
  QCheck.Test.make ~name:"noc latency monotone in size" ~count:50
    QCheck.(pair (int_range 1 2000) (int_range 1 2000))
    (fun (a, b) ->
      let _, noc = make_noc () in
      let la = Noc.uncontended_latency noc ~src:0 ~dst:3 ~bytes:a in
      let lb = Noc.uncontended_latency noc ~src:0 ~dst:3 ~bytes:b in
      (a <= b && la <= lb) || (a >= b && la >= lb))

let suite =
  [
    ("star-mesh routes", `Quick, test_star_mesh_routes);
    ("route endpoints", `Quick, test_route_endpoints_are_tile_links);
    ("mesh and ring", `Quick, test_mesh_and_ring);
    ("single router", `Quick, test_single_router);
    ("delivery time", `Quick, test_delivery_time);
    ("contention serializes", `Quick, test_contention_serializes);
    ("disjoint paths parallel", `Quick, test_disjoint_paths_parallel);
    ("loopback", `Quick, test_loopback);
    ("stats", `Quick, test_stats);
    ("route table matches BFS", `Quick, test_route_table_matches_bfs);
    ("send allocates nothing", `Quick, test_send_allocates_nothing);
  ]
  @ [ QCheck_alcotest.to_alcotest test_bandwidth_larger_packets_slower ]
