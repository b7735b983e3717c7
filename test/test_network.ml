(* Network substrate: latency, FIFO channels, CPU serialization, DC
   failures. *)

let mk ?(jitter = 0) () =
  let eng = Sim.Engine.create () in
  let topo =
    Net.Topology.create ~intra_dc_us:100 ~jitter_us:jitter
      [| Net.Topology.Virginia; Net.Topology.California; Net.Topology.Frankfurt |]
  in
  (eng, Net.Network.create eng topo)

let test_latency () =
  let eng, net = mk () in
  let got = ref (-1) in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1
      ~cost:(fun _ -> 0)
      (fun (_ : int) -> got := Sim.Engine.now eng)
  in
  Net.Network.send net ~src:a ~dst:b 1;
  Sim.Engine.run eng;
  (* Virginia–California RTT is 61 ms, one way 30.5 ms *)
  Alcotest.(check int) "one-way latency" 30_500 !got

let test_intra_dc_latency () =
  let eng, net = mk () in
  let got = ref (-1) in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:0
      ~cost:(fun _ -> 0)
      (fun (_ : int) -> got := Sim.Engine.now eng)
  in
  Net.Network.send net ~src:a ~dst:b 1;
  Sim.Engine.run eng;
  Alcotest.(check int) "intra-DC latency" 100 !got

let test_fifo_order () =
  let eng, net = mk ~jitter:5_000 () in
  let received = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1
      ~cost:(fun _ -> 0)
      (fun m -> received := m :: !received)
  in
  for i = 1 to 50 do
    Net.Network.send net ~src:a ~dst:b i
  done;
  Sim.Engine.run eng;
  Alcotest.(check (list int))
    "messages delivered in send order despite jitter"
    (List.init 50 (fun i -> i + 1))
    (List.rev !received)

let test_cpu_serialization () =
  let eng, net = mk () in
  let times = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:0
      ~cost:(fun _ -> 1_000)
      (fun (_ : int) -> times := Sim.Engine.now eng :: !times)
  in
  (* three messages arrive together; each costs 1 ms of CPU, so handlers
     complete 1 ms apart *)
  for _ = 1 to 3 do
    Net.Network.send net ~src:a ~dst:b 0
  done;
  Sim.Engine.run eng;
  (match List.rev !times with
  | [ t1; t2; t3 ] ->
      Alcotest.(check int) "first after service" 1_100 t1;
      Alcotest.(check int) "second queued" 2_100 t2;
      Alcotest.(check int) "third queued" 3_100 t3
  | _ -> Alcotest.fail "expected three deliveries");
  Alcotest.(check int) "busy time accounted" 3_000 (Net.Network.node_busy_us net b);
  Alcotest.(check int) "processed count" 3 (Net.Network.node_processed net b)

let test_send_self_no_latency () =
  let eng, net = mk () in
  let got = ref (-1) in
  let rec_addr = ref (-1) in
  let a =
    Net.Network.register net ~dc:0
      ~cost:(fun _ -> 42)
      (fun (_ : int) -> got := Sim.Engine.now eng)
  in
  rec_addr := a;
  Net.Network.send_self net ~node:a 0;
  Sim.Engine.run eng;
  Alcotest.(check int) "only service time, no network" 42 !got

let test_failed_dc_drops () =
  let eng, net = mk () in
  let received = ref 0 in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) -> incr received)
  in
  Net.Network.send net ~src:a ~dst:b 0;
  Sim.Engine.run eng;
  Net.Network.fail_dc net 1;
  Alcotest.(check bool) "marked failed" true (Net.Network.dc_failed net 1);
  Net.Network.send net ~src:a ~dst:b 0;
  Net.Network.send net ~src:b ~dst:a 0;
  Sim.Engine.run eng;
  Alcotest.(check int) "no delivery to or from a failed DC" 1 !received;
  Alcotest.(check int) "drops counted" 2 (Net.Network.messages_dropped net)

let test_inflight_to_failed_dc_dropped () =
  let eng, net = mk () in
  let received = ref 0 in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) -> incr received)
  in
  Net.Network.send net ~src:a ~dst:b 0;
  (* the DC fails while the message is still in flight *)
  Sim.Engine.schedule eng ~delay:1_000 (fun () -> Net.Network.fail_dc net 1);
  Sim.Engine.run eng;
  Alcotest.(check int) "in-flight message dropped" 0 !received

let test_topology_paper_rtts () =
  let topo = Net.Topology.five_dcs () in
  (* §8: RTT between regions ranges from 26 ms to 202 ms *)
  let max_rtt = ref 0 and min_rtt = ref max_int in
  for i = 0 to 4 do
    for j = 0 to 4 do
      if i <> j then begin
        let rtt =
          Net.Topology.one_way topo ~src:i ~dst:j
          + Net.Topology.one_way topo ~src:j ~dst:i
        in
        if rtt > !max_rtt then max_rtt := rtt;
        if rtt < !min_rtt then min_rtt := rtt
      end
    done
  done;
  Alcotest.(check int) "min RTT 26ms" 26_000 !min_rtt;
  Alcotest.(check int) "max RTT 202ms" 202_000 !max_rtt;
  (* Virginia–California: 61 ms, the latency that dominates strong
     transactions in §8.1 *)
  Alcotest.(check int) "Va-Ca RTT" 61_000
    (Net.Topology.one_way topo ~src:0 ~dst:1
    + Net.Topology.one_way topo ~src:1 ~dst:0)

let test_topology_growth_order () =
  (* §8.3 grows the deployment: 3 DCs, then Ireland, then Brazil *)
  let t4 = Net.Topology.n_dcs 4 in
  Alcotest.(check string) "fourth DC is Ireland" "ireland"
    (Net.Topology.region_of_dc t4 3);
  let t5 = Net.Topology.n_dcs 5 in
  Alcotest.(check string) "fifth DC is Brazil" "brazil"
    (Net.Topology.region_of_dc t5 4)

(* --- reliable (ack/retransmit) layer ----------------------------------- *)

(* Virginia -> California over the lossy transport with a clean fault
   model: one-way 30.5 ms, so RTT 61 ms and a base RTO of
   61 ms + 2 x jitter + 10 ms. [received] collects delivered payloads in
   delivery order. *)
let mk_reliable ?(jitter = 0) () =
  let eng, net = mk ~jitter () in
  let faults = Net.Network.enable_faults net in
  let reg = Sim.Metrics.create () in
  Net.Network.set_meter net reg ~kinds:[| "m" |]
    ~kind_index:(fun _ -> 0)
    ~size_of:(fun _ -> 8);
  let received = ref [] in
  let a = Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()) in
  let b =
    Net.Network.register net ~dc:1
      ~cost:(fun _ -> 0)
      (fun (m : int) -> received := m :: !received)
  in
  (eng, net, faults, reg, a, b, received)

let rtt_us = 61_000

(* [n] sends from [start_us], one every [every_us], the [i]-th carrying
   payload [first + i]. *)
let stream eng net ~src ~dst ?(start_us = 0) ?(first = 0) ~every_us n =
  for i = 0 to n - 1 do
    Sim.Engine.schedule_at eng ~time:(start_us + (i * every_us)) (fun () ->
        Net.Network.send net ~src ~dst (first + i))
  done

(* A sender that never quiesces fails the test instead of hanging it. *)
let run_bounded eng = Sim.Engine.run ~until:20_000_000 eng

let check_exactly_once_in_order what expected received =
  Alcotest.(check (list int)) what expected (List.rev !received)

let test_clean_stream_no_retransmit () =
  let eng, net, _, _, a, b, received = mk_reliable ~jitter:500 () in
  (* 2 s of sends, ~27 base RTOs, with jitter below the send interval so
     nothing reorders: every packet is acked in about one RTT and none
     may be resent *)
  stream eng net ~src:a ~dst:b ~every_us:2_000 1_000;
  run_bounded eng;
  check_exactly_once_in_order "all delivered once, in order"
    (List.init 1_000 Fun.id) received;
  Alcotest.(check int) "no retransmission" 0
    (Net.Network.retransmissions net);
  Alcotest.(check int) "no duplicate at the receiver" 0
    (Net.Network.duplicates_suppressed net);
  Alcotest.(check int) "nothing left unacked" 0
    (Net.Network.unacked_backlog net)

let test_partition_heal_drains () =
  let eng, net, faults, _, a, b, received = mk_reliable ~jitter:1_000 () in
  let every_us = 1_000 and heal_us = 3_050_000 in
  (* sends every 1 ms through a ~2 s partition and on for 1.5 s after
     the heal, so fresh sends keep landing behind the ~2,000 holes the
     partition left and raise a duplicate ack every millisecond. The
     backed-off timer fires at 3.04 s, just before the heal, so the next
     go-back-N is a full [rto_cap] away. Were each progress ack to push
     the timer back, fast retransmit would heal one hole per round trip
     (64 ms, inside the 73 ms base RTO) and go-back-N would never
     fire. *)
  let n = (heal_us + 1_500_000) / every_us in
  let sent_before_heal = heal_us / every_us in
  stream eng net ~src:a ~dst:b ~every_us n;
  Sim.Engine.schedule_at eng ~time:1_000_000 (fun () ->
      Net.Faults.partition faults 0 1);
  Sim.Engine.schedule_at eng ~time:heal_us (fun () ->
      Net.Faults.heal faults 0 1);
  let deadline = heal_us + Net.Network.rto_cap net + (2 * rtt_us) in
  let delivered = ref (-1) and backlog = ref (-1) in
  Sim.Engine.schedule_at eng ~time:deadline (fun () ->
      delivered := List.length !received;
      backlog := Net.Network.unacked_backlog net);
  run_bounded eng;
  Alcotest.(check bool) "the partition dropped packets" true
    (Net.Network.dropped_partition net > 0);
  check_exactly_once_in_order "all delivered once, in order"
    (List.init n Fun.id) received;
  (* within rto_cap + 2 RTTs of the heal: everything sent before it has
     arrived, and only the last two RTTs of sends are still unacked *)
  Alcotest.(check bool)
    (Fmt.str "pre-heal sends delivered by the deadline (%d of %d)" !delivered
       sent_before_heal)
    true
    (!delivered >= sent_before_heal);
  Alcotest.(check bool)
    (Fmt.str "backlog drained by the deadline (%d unacked)" !backlog)
    true
    (!backlog <= 2 * rtt_us / every_us)

let test_loss_dup_exactly_once () =
  let eng, net, faults, _, a, b, received = mk_reliable ~jitter:2_000 () in
  Net.Faults.set_drop faults 0.1;
  Net.Faults.set_dup faults 0.1;
  stream eng net ~src:a ~dst:b ~every_us:1_000 500;
  run_bounded eng;
  check_exactly_once_in_order "lossy + duplicating link: exactly once, FIFO"
    (List.init 500 Fun.id) received;
  Alcotest.(check bool) "losses were retransmitted" true
    (Net.Network.retransmissions net > 0);
  Alcotest.(check bool) "duplicates were suppressed" true
    (Net.Network.duplicates_suppressed net > 0);
  (* two stalls, exactly: no jitter and no random faults, and a 1 ms
     partition swallows the packet sent at 100 ms, then the one sent at
     400 ms. Each is followed by nine more packets whose duplicate acks
     reach the sender from 62 ms later; the third fast-retransmits the
     hole and the latch swallows the other six. Each burst ends there:
     a stream running on would see the duplicates of the timer's
     go-back-N resend ack a head that is merely in flight, and those
     duplicate acks may fast-retransmit it too. *)
  let eng, net, faults, reg, a, b, received = mk_reliable () in
  stream eng net ~src:a ~dst:b ~every_us:1_000 110;
  stream eng net ~src:a ~dst:b ~start_us:300_000 ~first:110 ~every_us:1_000
    110;
  List.iter
    (fun at_us ->
      Sim.Engine.schedule_at eng ~time:(at_us - 500) (fun () ->
          Net.Faults.partition faults 0 1);
      Sim.Engine.schedule_at eng ~time:(at_us + 500) (fun () ->
          Net.Faults.heal faults 0 1))
    [ 100_000; 400_000 ];
  run_bounded eng;
  Alcotest.(check int) "two packets cut" 2 (Net.Network.dropped_partition net);
  check_exactly_once_in_order "the holes are repaired, FIFO preserved"
    (List.init 220 Fun.id) received;
  Alcotest.(check int) "one fast retransmit per stall" 2
    (Sim.Metrics.counter_value
       (Sim.Metrics.counter reg "net_fast_retransmits_total"))

let test_recover_node_fresh_flow () =
  let eng, net, _, _, a, b, received = mk_reliable () in
  (* a stream runs from 0 ms; b crashes and restarts at 200 ms, with
     30 ms of packets and acks in flight and a's retransmission timer
     armed on the old flow, and sending resumes at 200.5 ms on a fresh
     flow. Stale acks carry sequence numbers up to ~170 from the old
     flow: applied to the fresh one, they would pop packets it has not
     delivered. Stale resends from the orphaned timer would land in the
     fresh flow's sequence space as packets it has not sent yet. *)
  stream eng net ~src:a ~dst:b ~every_us:1_000 200;
  Sim.Engine.schedule_at eng ~time:200_000 (fun () ->
      Net.Network.fail_node net b;
      Net.Network.recover_node net b;
      received := []);
  let restart_us = 200_500 in
  stream eng net ~src:a ~dst:b ~start_us:restart_us ~first:1_000
    ~every_us:1_000 300;
  (* no fresh ack can reach a before the first fresh send + RTT *)
  let backlog = ref (-1) in
  Sim.Engine.schedule_at eng ~time:(restart_us + rtt_us - 1) (fun () ->
      backlog := Net.Network.unacked_backlog net);
  run_bounded eng;
  Alcotest.(check int) "stale acks did not truncate the fresh flow"
    (rtt_us / 1_000) !backlog;
  check_exactly_once_in_order "the fresh flow delivers exactly once, in order"
    (List.init 300 (fun i -> 1_000 + i))
    received;
  Alcotest.(check int) "the orphaned timer resent nothing" 0
    (Net.Network.retransmissions net);
  Alcotest.(check int) "no stale packet reached the fresh receiver" 0
    (Net.Network.duplicates_suppressed net)

(* --- incarnations: in-flight traffic across crash and recovery ---------- *)

(* Each scenario runs on the direct path and, with a clean fault model
   installed, on the reliable path. Virginia -> California is inter-DC,
   so with faults it rides the ack/retransmit layer. *)
let mk_paths ~reliable ?(jitter = 0) () =
  let eng, net = mk ~jitter () in
  if reliable then ignore (Net.Network.enable_faults net);
  (eng, net)

let path_name reliable = if reliable then "reliable" else "direct"

let test_dc_recovery_kills_inflight reliable () =
  let eng, net = mk_paths ~reliable () in
  let at_a = ref 0 and at_b = ref 0 in
  let a =
    Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun (_ : int) ->
        incr at_a)
  in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) ->
        incr at_b)
  in
  (* both directions are in flight (30.5 ms one way) when dc 1 crashes
     at 1 ms and comes back at 2 ms: neither may land in the new
     incarnation *)
  Net.Network.send net ~src:a ~dst:b 0;
  Net.Network.send net ~src:b ~dst:a 0;
  Sim.Engine.schedule_at eng ~time:1_000 (fun () -> Net.Network.fail_dc net 1);
  Sim.Engine.schedule_at eng ~time:2_000 (fun () ->
      Net.Network.recover_dc net 1);
  run_bounded eng;
  Alcotest.(check int) "pre-crash message to the DC never delivered" 0 !at_b;
  Alcotest.(check int) "pre-crash message from the DC never delivered" 0
    !at_a;
  (* the channel itself works in the new incarnation *)
  Net.Network.send net ~src:a ~dst:b 1;
  run_bounded eng;
  Alcotest.(check int) "fresh send delivered" 1 !at_b

let test_client_survives_dc_recovery reliable () =
  let eng, net = mk_paths ~reliable () in
  let at_c = ref 0 and at_b = ref 0 in
  (* a client session colocated with dc 0 talks to a replica in the
     live dc 1 while dc 0 crashes and recovers: the client is outside
     dc 0's failure domain, so its in-flight traffic survives *)
  let c =
    Net.Network.register net ~client:true ~dc:0 ~cost:(fun _ -> 0)
      (fun (_ : int) -> incr at_c)
  in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (_ : int) ->
        incr at_b)
  in
  Net.Network.send net ~src:c ~dst:b 0;
  Net.Network.send net ~src:b ~dst:c 0;
  Sim.Engine.schedule_at eng ~time:1_000 (fun () -> Net.Network.fail_dc net 0);
  Sim.Engine.schedule_at eng ~time:2_000 (fun () ->
      Net.Network.recover_dc net 0);
  run_bounded eng;
  Alcotest.(check int) "client -> live DC delivered" 1 !at_b;
  Alcotest.(check int) "live DC -> client delivered" 1 !at_c;
  Alcotest.(check int) "nothing dropped" 0 (Net.Network.messages_dropped net);
  Alcotest.(check int) "delivered on the first transmission" 0
    (Net.Network.retransmissions net)

let test_recover_node_no_fifo_clamp reliable () =
  let jitter = 1_000_000 in
  let eng, net = mk_paths ~reliable ~jitter () in
  let fresh = ref [] in
  let b =
    Net.Network.register net ~dc:1 ~cost:(fun _ -> 0) (fun (m : int) ->
        if m >= 1_000 then fresh := (m, Sim.Engine.now eng) :: !fresh)
  in
  (* ten senders each put 100 messages in flight at 0 ms; with up to
     1 s of jitter, each channel's last pre-crash arrival lands near
     1 s. b restarts at 1 ms and each sender sends one fresh message:
     it must arrive at its own jittered transit time, not be held
     behind its channel's discarded pre-crash arrivals. Clamped, every
     fresh arrival would come after ~1 s; unclamped, the earliest of
     ten draws is below half the jitter unless all ten land above. *)
  let senders =
    List.init 10 (fun _ ->
        Net.Network.register net ~dc:0 ~cost:(fun _ -> 0) (fun _ -> ()))
  in
  List.iter
    (fun a ->
      for i = 0 to 99 do
        Net.Network.send net ~src:a ~dst:b i
      done)
    senders;
  let restart_us = 1_000 in
  Sim.Engine.schedule_at eng ~time:restart_us (fun () ->
      Net.Network.fail_node net b;
      Net.Network.recover_node net b;
      List.iteri
        (fun i a -> Net.Network.send net ~src:a ~dst:b (1_000 + i))
        senders);
  run_bounded eng;
  Alcotest.(check (list int)) "each fresh send delivered once"
    (List.init 10 (fun i -> 1_000 + i))
    (List.sort compare (List.map fst !fresh));
  let first_us = List.fold_left (fun acc (_, at) -> min acc at) max_int !fresh in
  Alcotest.(check bool)
    (Fmt.str "earliest fresh arrival at %d us is not clamped" first_us)
    true
    (first_us <= restart_us + 30_500 + (jitter / 2))

let suite =
  [
    Alcotest.test_case "WAN latency from the topology" `Quick test_latency;
    Alcotest.test_case "intra-DC latency" `Quick test_intra_dc_latency;
    Alcotest.test_case "channels are FIFO under jitter" `Quick test_fifo_order;
    Alcotest.test_case "node CPU serializes processing" `Quick
      test_cpu_serialization;
    Alcotest.test_case "self-send skips the network" `Quick
      test_send_self_no_latency;
    Alcotest.test_case "failed DC sends and receives nothing" `Quick
      test_failed_dc_drops;
    Alcotest.test_case "in-flight messages to a failed DC drop" `Quick
      test_inflight_to_failed_dc_dropped;
    Alcotest.test_case "topology matches the paper's RTTs" `Quick
      test_topology_paper_rtts;
    Alcotest.test_case "deployment growth order (§8.3)" `Quick
      test_topology_growth_order;
    Alcotest.test_case "reliable layer: a clean stream is never resent"
      `Quick test_clean_stream_no_retransmit;
    Alcotest.test_case "reliable layer: a healed partition drains in one RTO"
      `Quick test_partition_heal_drains;
    Alcotest.test_case "reliable layer: exactly-once FIFO under loss and dup"
      `Quick test_loss_dup_exactly_once;
    Alcotest.test_case "reliable layer: node restart starts a clean flow"
      `Quick test_recover_node_fresh_flow;
  ]
  @ List.concat_map
      (fun reliable ->
        let p = path_name reliable in
        [
          Alcotest.test_case
            (Fmt.str "%s: DC recovery discards pre-crash traffic" p)
            `Quick
            (test_dc_recovery_kills_inflight reliable);
          Alcotest.test_case
            (Fmt.str "%s: client traffic survives its DC's recovery" p)
            `Quick
            (test_client_survives_dc_recovery reliable);
          Alcotest.test_case
            (Fmt.str "%s: node restart resets the FIFO clamp" p)
            `Quick
            (test_recover_node_no_fifo_clamp reliable);
        ])
      [ false; true ]
