(* perfbench: the end-to-end benchmark of the UniStore simulator.

   One invocation runs one named workload from a seed:

     perfbench.exe --workload rubis --seed 7 --seconds 30 --trace 0

   A workload is an open loop of Poisson arrivals ([Openloop.arrivals])
   over a three-DC deployment (Virginia, California, Frankfurt, f = 1),
   materialised from the seed before the run. One repetition deploys
   the store, populates it, runs a simulated warm-up, a measurement
   window and a drain to quiescence, then checks the outcome. The run
   repeats whole repetitions until [--seconds] of wall time have passed
   and reports the median wall times; every simulated figure is
   deterministic under the seed, so it comes from the first repetition
   and the later ones must reproduce it exactly.

   The benchmark drives the store only through its public modules
   ([System], [Client], [Openloop], [Nemesis], [Network] statistics,
   the [System.metrics] registry, [Engine] counters) and times its own
   calls into them.

   With [--trace 1] the run ends with one traced repetition: the
   engine's self-profiler, the event trace and full history recording
   are on, the benchmark records its own spans around every
   transaction, attempt, read phase and commit, and the per-layer
   metrics are printed. End-to-end figures always come from untraced
   repetitions.

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}. *)

module U = Unistore
module Json = Sim.Json
module Metrics = Sim.Metrics
module Network = Net.Network
module Openloop = Workload.Openloop

let wall () = Unix.gettimeofday ()
let process_start = wall ()

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type mix =
  | Rubis_mix  (** the §8.1 RUBiS bidding mix with its PoR conflicts *)
  | Micro of { strong : float; update : float; ops : int; keys : int }
      (** uniform micro-transactions over a register key space *)

type workload = {
  name : string;
  partitions : int;
  rate : float;  (** offered load, tx/s, Poisson *)
  warmup_us : int;
  window_us : int;
  persistence : bool;
  links : Net.Faults.spec option;  (** inter-DC fault model; [None] reliable *)
  failover_us : int;
  mix : mix;
  faults : U.Nemesis.schedule;
}

let step at_us ev = { U.Nemesis.at_us; ev }

let rubis =
  {
    name = "rubis";
    partitions = 4;
    rate = 3000.0;
    warmup_us = 1_000_000;
    window_us = 16_000_000;
    persistence = false;
    links = None;
    failover_us = 0;
    mix = Rubis_mix;
    faults = [];
  }

let strong_disk =
  {
    name = "strong_disk";
    partitions = 4;
    rate = 1600.0;
    warmup_us = 1_000_000;
    window_us = 16_000_000;
    persistence = true;
    links = None;
    failover_us = 0;
    mix = Micro { strong = 0.9; update = 1.0; ops = 2; keys = 100_000 };
    faults = [];
  }

(* A partition and heal, a node crash and restart from disk, and a
   whole-DC crash and rejoin, closed by [Heal_all], then 8.5 s in which
   the store catches up. The client failover timeout sits above the
   strong-commit p99 of the lossy steady state (~1.3 s), so sessions
   fail over when their DC or node is down, not when a commit is merely
   slow. Not in BENCHMARK.json: see perfbench/README.md. *)
let churn =
  {
    name = "churn";
    partitions = 4;
    rate = 500.0;
    warmup_us = 1_000_000;
    window_us = 16_000_000;
    persistence = true;
    links = Some Net.Faults.default_spec;
    failover_us = 2_000_000;
    mix = Micro { strong = 0.1; update = 0.5; ops = 3; keys = 100_000 };
    faults =
      U.Nemesis.
        [
          step 2_000_000 (Partition (0, 1));
          step 3_000_000 (Heal (0, 1));
          step 3_500_000 (Crash_node { dc = 1; part = 0 });
          step 4_200_000 (Restart_node { dc = 1; part = 0 });
          step 5_000_000 (Crash_dc 2);
          step 6_500_000 (Recover_dc 2);
          step 7_500_000 Heal_all;
        ];
  }

(* The inter-DC links run the sequence-numbered ack/retransmit transport
   (a fault model is installed) but lose nothing: every delivery is
   acknowledged, duplicates are suppressed, and retransmissions fire
   only when an acknowledgement is late. *)
let acked_links =
  { Net.Faults.drop_p = 0.0; dup_p = 0.01; degrade_p = 0.0; degrade_extra_us = 0 }

let transport =
  {
    name = "transport";
    partitions = 4;
    rate = 500.0;
    warmup_us = 1_000_000;
    window_us = 24_000_000;
    persistence = false;
    links = Some acked_links;
    failover_us = 0;
    mix = Micro { strong = 0.1; update = 1.0; ops = 3; keys = 100_000 };
    faults = [];
  }

let workloads = [ rubis; strong_disk; transport; churn ]

(* Shrink every simulated duration of a workload (self-check runs). *)
let scaled wl s =
  let sc x = int_of_float (float_of_int x *. s) in
  {
    wl with
    warmup_us = sc wl.warmup_us;
    window_us = sc wl.window_us;
    faults = List.map (fun st -> { st with U.Nemesis.at_us = sc st.U.Nemesis.at_us }) wl.faults;
  }

let rubis_spec = Workload.Rubis.default_spec

(* The deployment (timer phases, clock skews, link jitter and loss) is
   fixed; [--seed] draws only the inputs: arrival instants and the
   transaction mix. *)
let deployment_seed = 42

(* Attempts per arrival before it counts as failed: strong aborts and
   failover interruptions are retried, as the paper's clients do. *)
let max_attempts = 20

type txn = { strong : bool; label : string; exec : U.Client.t -> unit }

let draw_txn wl rng =
  match wl.mix with
  | Rubis_mix ->
      let t = Workload.Rubis.mix.(Sim.Rng.weighted rng Workload.Rubis.weights) in
      {
        strong = t.Workload.Rubis.strong;
        label = t.Workload.Rubis.name;
        exec = (fun c -> t.Workload.Rubis.body rubis_spec c rng);
      }
  | Micro m ->
      let strong = Sim.Rng.float rng 1.0 < m.strong in
      let update = Sim.Rng.float rng 1.0 < m.update in
      let rec pick acc n =
        if n = 0 then acc
        else
          let k = Sim.Rng.int rng m.keys in
          if List.mem k acc then pick acc n else pick (k :: acc) (n - 1)
      in
      let keys = pick [] m.ops in
      let exec c =
        List.iter
          (fun k ->
            if update then
              U.Client.update c k (Crdt.Reg_write (Sim.Rng.int rng 1_000_000))
            else ignore (U.Client.read c k))
          keys
      in
      {
        strong;
        label = (if strong then "strong" else if update then "update" else "read");
        exec;
      }

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)

type arrival = {
  a_at : int;
  a_home : int;  (** DC whose session pool served the arrival *)
  mutable a_strong : bool;
  mutable a_done : int;  (** simulated time of the final outcome; -1 open *)
  mutable a_committed : bool;
  mutable a_attempts : int;
}

(* A benchmark span, in simulated microseconds. Spans of one arrival
   share [sp_txn]; [sp_parent] is the enclosing span's id (-1 at the
   root). *)
type span = {
  sp_id : int;
  sp_parent : int;
  sp_txn : int;
  sp_name : string;
  sp_start : int;
  sp_stop : int;
}

type rep = {
  setup_s : float;
  run_s : float;
  alloc_words : float;  (** minor plus direct major words *)
  minor_words : float;
  top_heap_words : int;
  major_gcs : int;
  events : int;
  sys : U.System.t;
  arrivals : arrival array;
  stats : Openloop.stats;
  recoveries : int list;  (** simulated µs per restart/rejoin *)
  failures : string list;  (** correctness violations *)
  spans : span list;
}

(* Periodic kinds that are always momentarily in flight: failure
   detector pings, stability gossip, and the strong-heartbeat
   certification churn of idle groups. *)
let background_kind = function
  | "fd_ping" | "heartbeat" | "stablevec" | "knownvec_global" | "kv_up"
  | "stable_down" | "accept" | "accept_ack" | "deliver" | "learn_decision"
  | "decision" | "already_decided" | "prepare_strong" | "nack" ->
      true
  | _ -> false

(* Run settle slices until nothing is left to finish: no strong
   transaction pending, no client call outstanding, no data-plane
   message unacknowledged, no live DC syncing (the explorer's drain
   predicate). *)
let drain sys =
  let net = U.System.network sys in
  let dcs = U.Config.dcs (U.System.cfg sys) in
  let quiet () =
    U.System.pending_strong sys = 0
    && U.System.clients_in_flight sys = 0
    && Network.unacked_matching net ~f:(fun k -> not (background_kind k)) = 0
    && not
         (List.exists
            (fun d -> (not (Network.dc_failed net d)) && U.System.dc_syncing sys d)
            (List.init dcs Fun.id))
  in
  let tries = ref 40 in
  while (not (quiet ())) && !tries > 0 do
    decr tries;
    U.System.run sys ~until:(U.System.now sys + 250_000)
  done;
  U.System.run sys ~until:(U.System.now sys + 100_000)

(* Poll every restarted replica from its [Restart_node]/[Recover_dc]
   until it has left the syncing state; [record] gets the delay. *)
let watch_recoveries sys faults ~record =
  let eng = U.System.engine sys in
  List.iter
    (fun { U.Nemesis.at_us; ev } ->
      let ready =
        match ev with
        | U.Nemesis.Restart_node { dc; part } ->
            Some
              (fun () ->
                (not (U.System.node_down sys ~dc ~part))
                && not (U.Replica.is_syncing (U.System.replica sys ~dc ~part)))
        | U.Nemesis.Recover_dc dc -> Some (fun () -> not (U.System.dc_syncing sys dc))
        | _ -> None
      in
      match ready with
      | None -> ()
      | Some ready ->
          Sim.Engine.schedule_at eng ~time:at_us (fun () ->
              Sim.Engine.every eng ~period:1_000 (fun () ->
                  if ready () then begin
                    record (U.System.now sys - at_us);
                    false
                  end
                  else true)))
    faults

let run_rep ~t0 ~traced wl ~seed =
  let conflict =
    match wl.mix with
    | Rubis_mix -> Workload.Rubis.conflict_spec
    | Micro _ -> U.Config.Serializable
  in
  let cfg =
    U.Config.default ~topo:(Net.Topology.three_dcs ()) ~partitions:wl.partitions
      ~f:1 ~mode:U.Config.Unistore ~conflict ~seed:deployment_seed ?link_faults:wl.links
      ~persistence:wl.persistence ~client_failover_us:wl.failover_us
      ~measure_visibility:true ~record_history:traced ~profile:traced
      ~trace_enabled:traced ~trace_capacity:2_000_000 ()
  in
  let sys = U.System.create cfg in
  if wl.mix = Rubis_mix then Workload.Rubis.populate sys rubis_spec;
  let eng = U.System.engine sys in
  let stop_at = wl.warmup_us + wl.window_us in
  U.System.set_window sys ~start:wl.warmup_us ~stop:stop_at;
  let inputs = Sim.Rng.create seed in
  let times =
    Openloop.arrivals ~rng:(Sim.Rng.split inputs ~id:0)
      ~rate:(Openloop.constant wl.rate) ~until_us:stop_at
  in
  let dcs = U.Config.dcs cfg in
  let arrivals =
    Array.of_list
      (List.mapi
         (fun i at ->
           {
             a_at = at;
             a_home = i mod dcs;
             a_strong = false;
             a_done = -1;
             a_committed = false;
             a_attempts = 0;
           })
         times)
  in
  let index = Hashtbl.create (Array.length arrivals) in
  Array.iteri (fun i a -> Hashtbl.replace index a.a_at i) arrivals;
  let spans = ref [] and next_span = ref (Array.length arrivals) in
  let span ~parent ~txn name ~start ~stop =
    if traced then begin
      let id = !next_span in
      incr next_span;
      spans :=
        { sp_id = id; sp_parent = parent; sp_txn = txn; sp_name = name; sp_start = start; sp_stop = stop }
        :: !spans;
      id
    end
    else -1
  in
  (* the transaction mix draws from the input seed too, one stream per
     arrival, rather than from the deployment's RNG *)
  let body ~at_us client _ =
    let id = Hashtbl.find index at_us in
    let a = arrivals.(id) in
    let rng = Sim.Rng.split inputs ~id:(id + 1) in
    let txn = draw_txn wl rng in
    a.a_strong <- txn.strong;
    let rec attempt () =
      a.a_attempts <- a.a_attempts + 1;
      let start = U.System.now sys in
      let again () = if a.a_attempts >= max_attempts then `Aborted else attempt () in
      let interrupted () =
        ignore (span ~parent:id ~txn:id "attempt" ~start ~stop:(U.System.now sys));
        again ()
      in
      match
        U.Client.start client ~label:txn.label ~strong:txn.strong;
        txn.exec client;
        let executed = U.System.now sys in
        (executed, U.Client.commit client)
      with
      | executed, outcome -> (
          let stop = U.System.now sys in
          let att = span ~parent:id ~txn:id "attempt" ~start ~stop in
          ignore (span ~parent:att ~txn:id "read" ~start ~stop:executed);
          ignore
            (span ~parent:att ~txn:id
               (if txn.strong then "commit_strong" else "commit_causal")
               ~start:executed ~stop);
          match outcome with
          | `Committed _ ->
              a.a_committed <- true;
              `Committed
          | `Aborted -> again ())
      | exception U.Client.Aborted -> interrupted ()
      | exception U.Client.Overloaded ->
          Sim.Fiber.sleep (U.Config.overload_backoff_us cfg);
          interrupted ()
    in
    let outcome = attempt () in
    a.a_done <- U.System.now sys;
    spans :=
      if traced then
        { sp_id = id; sp_parent = -1; sp_txn = id; sp_name = "txn"; sp_start = a.a_at; sp_stop = a.a_done }
        :: !spans
      else !spans;
    outcome
  in
  let stats = Openloop.install sys ~arrivals:times ~body in
  U.Nemesis.inject sys wl.faults;
  let recoveries = ref [] in
  watch_recoveries sys wl.faults ~record:(fun d -> recoveries := d :: !recoveries);
  (* allocation and GC counters cover warm-up, window and drain *)
  let minor0 = Gc.minor_words () and gc0 = Gc.quick_stat () in
  U.System.run sys ~until:wl.warmup_us;
  let t1 = wall () in
  U.System.run sys ~until:stop_at;
  drain sys;
  let t2 = wall () in
  let gc1 = Gc.quick_stat () in
  let minor1 = Gc.minor_words () in
  let direct_major (g : Gc.stat) = g.Gc.major_words -. g.Gc.promoted_words in
  let failures = ref [] in
  let fail fmt = Fmt.kstr (fun s -> failures := s :: !failures) fmt in
  (* Convergence is eventual: on lossy links the last retransmissions
     of strong deliveries may still be under backoff at quiescence, so
     give them bounded settle slices before calling a divergence. *)
  let rec converge tries =
    match U.System.check_convergence sys with
    | e :: _ as errs when tries = 0 ->
        fail "convergence: %d divergences, first %s" (List.length errs) e
    | _ :: _ ->
        U.System.run sys ~until:(U.System.now sys + 250_000);
        converge (tries - 1)
    | [] -> ()
  in
  converge 40;
  if U.System.pending_strong sys <> 0 then
    fail "%d strong transactions still pending" (U.System.pending_strong sys);
  if U.System.clients_in_flight sys <> 0 then
    fail "%d client sessions still in flight" (U.System.clients_in_flight sys);
  let unresolved = Array.fold_left (fun n a -> if a.a_done < 0 then n + 1 else n) 0 arrivals in
  if unresolved > 0 then fail "%d arrivals never resolved" unresolved;
  if stats.Openloop.arrivals <> Array.length arrivals then
    fail "%d arrivals scheduled, %d ran" (Array.length arrivals) stats.Openloop.arrivals;
  if traced then
    List.iter
      (fun (v : Explore.Oracle.verdict) ->
        if not v.pass then fail "%s oracle: %s" v.oracle v.detail)
      [ Explore.Oracle.por sys; Explore.Oracle.durability sys ~schedule:wl.faults ];
  {
    setup_s = t1 -. t0;
    run_s = t2 -. t1;
    alloc_words = minor1 -. minor0 +. direct_major gc1 -. direct_major gc0;
    minor_words = minor1 -. minor0;
    top_heap_words = gc1.Gc.top_heap_words;
    major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
    events = Sim.Engine.executed_events eng;
    sys;
    arrivals;
    stats;
    recoveries = List.rev !recoveries;
    failures = List.rev !failures;
    spans = List.rev !spans;
  }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

(* A reported figure: value, unit, and the number of samples behind it. *)
type metric = { name : string; unit_ : string; value : float; n : int }

let samples_of l =
  let s = Sim.Stats.create_samples () in
  List.iter (Sim.Stats.add s) l;
  s

let pct s p = if Sim.Stats.count s = 0 then 0.0 else Sim.Stats.percentile s p
let ms_pct s p = pct s p /. 1000.0

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let in_window wl t = t >= wl.warmup_us && t < wl.warmup_us + wl.window_us
let committed_total r = Array.fold_left (fun n a -> if a.a_committed then n + 1 else n) 0 r.arrivals

let latencies wl r ~strong =
  Array.fold_left
    (fun acc a ->
      if a.a_committed && a.a_strong = strong && in_window wl a.a_at then
        (a.a_done - a.a_at) :: acc
      else acc)
    [] r.arrivals
  |> samples_of

let visibility r =
  let h = U.System.history r.sys in
  let s = Sim.Stats.create_samples () in
  let dcs = U.Config.dcs (U.System.cfg r.sys) in
  for observer = 0 to dcs - 1 do
    for origin = 0 to dcs - 1 do
      match U.History.visibility_samples h ~observer ~origin with
      | Some v -> List.iter (Sim.Stats.add s) (Sim.Stats.to_list v)
      | None -> ()
    done
  done;
  s

let goodput_commits wl r =
  Array.fold_left
    (fun n a -> if a.a_committed && in_window wl a.a_done then n + 1 else n)
    0 r.arrivals

(* The simulated end-to-end figures of one repetition: deterministic
   under the seed. *)
let simulated wl r =
  let causal = latencies wl r ~strong:false and strong = latencies wl r ~strong:true in
  let vis = visibility r in
  let good = goodput_commits wl r in
  let m name unit_ value n = { name; unit_; value; n } in
  let nc = Sim.Stats.count causal and ns = Sim.Stats.count strong in
  [
    m "alloc_mwords" "Mwords" (r.alloc_words /. 1e6) 1;
    m "peak_heap_mb" "MB" (float_of_int (r.top_heap_words * (Sys.word_size / 8)) /. 1e6) 1;
    m "causal_p50_ms" "ms" (ms_pct causal 50.0) nc;
    m "causal_p99_ms" "ms" (ms_pct causal 99.0) nc;
    m "strong_p50_ms" "ms" (ms_pct strong 50.0) ns;
    m "strong_p99_ms" "ms" (ms_pct strong 99.0) ns;
    m "visibility_mean_ms" "ms"
      (if Sim.Stats.count vis = 0 then 0.0 else Sim.Stats.mean vis /. 1000.0)
      (Sim.Stats.count vis);
    m "goodput_tx_s" "tx/s" (float_of_int good /. (float_of_int wl.window_us /. 1e6)) good;
  ]

(* Median wall times over repetitions. *)
let timings ~setup ~run =
  [
    { name = "setup_s"; unit_ = "s"; value = median setup; n = List.length setup };
    { name = "run_s"; unit_ = "s"; value = median run; n = List.length run };
  ]

let end_to_end_names =
  [
    "setup_s"; "run_s"; "alloc_mwords"; "peak_heap_mb"; "causal_p50_ms";
    "causal_p99_ms"; "strong_p50_ms"; "strong_p99_ms"; "visibility_mean_ms";
    "goodput_tx_s";
  ]

(* --- per-layer figures of the traced repetition ---------------------- *)

let counter_where reg name ~f =
  List.fold_left
    (fun acc (labels, c) -> if f labels then acc + Metrics.counter_value c else acc)
    0
    (Metrics.counters_matching reg name)

let counter_total reg name = counter_where reg name ~f:(fun _ -> true)

let gauge_peak reg name =
  List.fold_left (fun acc (_, g) -> Float.max acc (Metrics.gauge_max g)) 0.0
    (Metrics.gauges_matching reg name)

let phase_hist reg phase =
  List.find_map
    (fun (labels, h) -> if List.assoc_opt "phase" labels = Some phase then Some h else None)
    (Metrics.histograms_matching reg "strong_phase_us")

let hist_pct_ms h p =
  match Option.bind h (fun h -> Metrics.h_percentile h p) with
  | Some v -> v /. 1000.0
  | None -> 0.0

let kind_is kinds labels =
  match List.assoc_opt "kind" labels with Some k -> List.mem k kinds | None -> false

(* Share (%) of the profiler's sampled wall time under labels matching [f]. *)
let wall_share prof ~f =
  let entries = Sim.Prof.entries prof in
  let total = List.fold_left (fun a (e : Sim.Prof.entry) -> a +. e.e_wall_s) 0.0 entries in
  let part =
    List.fold_left
      (fun a (e : Sim.Prof.entry) -> if f e.e_label then a +. e.e_wall_s else a)
      0.0 entries
  in
  if total > 0.0 then 100.0 *. part /. total else 0.0

let faulted_dcs wl =
  List.sort_uniq compare
    (List.concat_map
       (fun st ->
         match st.U.Nemesis.ev with
         | U.Nemesis.Crash_dc d | U.Nemesis.Recover_dc d -> [ d ]
         | U.Nemesis.Partition (a, b) -> [ a; b ]
         | U.Nemesis.Crash_node { dc; _ } | U.Nemesis.Restart_node { dc; _ } -> [ dc ]
         | _ -> [])
       wl.faults)

(* Longest stretch of the window in which no transaction homed at a
   faulted DC committed, maximum over those DCs (0 without faults). *)
let outage_us wl r =
  let lo = wl.warmup_us and hi = wl.warmup_us + wl.window_us in
  List.fold_left
    (fun worst dc ->
      let commits =
        Array.fold_left
          (fun acc a ->
            if a.a_home = dc && a.a_committed && in_window wl a.a_done then a.a_done :: acc
            else acc)
          [] r.arrivals
        |> List.sort compare
      in
      let last, gap =
        List.fold_left (fun (prev, g) t -> (t, max g (t - prev))) (lo, 0) commits
      in
      max worst (max gap (hi - last)))
    0 (faulted_dcs wl)

let span_samples r name =
  samples_of
    (List.filter_map
       (fun sp -> if sp.sp_name = name then Some (sp.sp_stop - sp.sp_start) else None)
       r.spans)

(* [plain] is an untraced repetition of the same seed: engine counts
   and allocation come from it, free of profiler and trace overhead. *)
let per_layer wl ~(plain : rep) (r : rep) =
  let sys = r.sys in
  let reg = U.System.metrics sys and net = U.System.network sys in
  let prof = Sim.Engine.prof (U.System.engine sys) in
  let cfg = U.System.cfg sys in
  let txs = float_of_int (max 1 (committed_total r)) in
  let per_tx x = float_of_int x /. txs in
  let arrivals = Array.length r.arrivals in
  let sim_s = float_of_int (U.System.now sys) /. 1e6 in
  let failed = Array.fold_left (fun n a -> if a.a_committed then n else n + 1) 0 r.arrivals in
  let replicas =
    List.concat_map
      (fun dc -> List.init cfg.U.Config.partitions (fun part -> U.System.replica sys ~dc ~part))
      (List.init (U.Config.dcs cfg) Fun.id)
  in
  let util =
    List.fold_left
      (fun a rep -> Float.max a (Network.node_utilization net (U.Replica.addr rep)))
      0.0 replicas
  in
  let received = counter_total reg "net_received_total" in
  let gossip =
    counter_where reg "net_sent_total"
      ~f:(kind_is [ "heartbeat"; "stablevec"; "knownvec_global"; "kv_up"; "stable_down" ])
  in
  let lag =
    match Metrics.histograms_matching reg "uniformity_lag_probe_us" with
    | (_, h) :: _ -> Some h
    | [] -> None
  in
  let fsyncs =
    List.fold_left (fun a (_, h) -> a + Metrics.h_count h) 0
      (Metrics.histograms_matching reg "wal_fsync_us")
  in
  let h = U.System.history sys in
  let strong_attempts = U.History.committed_strong h + U.History.aborted_strong h in
  let read = span_samples r "read" in
  let cc = span_samples r "commit_causal" and cs = span_samples r "commit_strong" in
  let attempts = Array.fold_left (fun n a -> n + a.a_attempts) 0 r.arrivals in
  let m name unit_ value n = { name; unit_; value; n } in
  let c name unit_ v = m name unit_ (float_of_int v) 1 in
  let plain_tx = float_of_int (max 1 (committed_total plain)) in
  [
    m "engine.events_per_tx" "events/tx" (float_of_int plain.events /. plain_tx) plain.events;
    m "engine.events_per_s" "1/s" (float_of_int plain.events /. plain.run_s) plain.events;
    m "engine.words_per_event" "words" (plain.alloc_words /. float_of_int (max 1 plain.events))
      plain.events;
    c "engine.major_gcs" "count" plain.major_gcs;
    m "net.msgs_per_tx" "msgs/tx" (per_tx (Network.messages_sent net)) (Network.messages_sent net);
    m "net.bytes_per_tx" "B/tx" (per_tx (counter_total reg "net_sent_bytes")) (committed_total r);
    m "net.acks_per_delivery" "ratio"
      (float_of_int (Network.acks_sent net) /. float_of_int (max 1 received))
      received;
    m "net.retransmits_per_tx" "1/tx" (per_tx (Network.retransmissions net)) (committed_total r);
    c "net.dups_suppressed" "count" (Network.duplicates_suppressed net);
    m "net.backlog_max" "msgs" (gauge_peak reg "net_flow_backlog") 1;
    m "net.wall_share" "%" (wall_share prof ~f:(fun l -> String.starts_with ~prefix:"net/" l))
      (Sim.Prof.total_events prof);
    m "net.node_util_max" "ratio" util (List.length replicas);
    m "replica.replicate_msgs_per_tx" "msgs/tx"
      (per_tx (counter_where reg "net_sent_total" ~f:(kind_is [ "replicate" ])))
      (committed_total r);
    m "replica.gossip_msgs_per_s" "1/s" (float_of_int gossip /. sim_s) gossip;
    m "replica.uniformity_lag_p50_ms" "ms" (hist_pct_ms lag 50.0)
      (Option.fold ~none:0 ~some:Metrics.h_count lag);
    m "replica.tick_wall_share" "%"
      (wall_share prof ~f:(fun l ->
           String.ends_with ~suffix:"/replica/broadcast" l
           || String.ends_with ~suffix:"/replica/propagate" l))
      (Sim.Prof.total_events prof);
    m "cert.execute_p50_ms" "ms" (hist_pct_ms (phase_hist reg "execute") 50.0) strong_attempts;
    m "cert.uniform_wait_p50_ms" "ms" (hist_pct_ms (phase_hist reg "uniform_wait") 50.0)
      strong_attempts;
    m "cert.certify_p50_ms" "ms" (hist_pct_ms (phase_hist reg "certify") 50.0) strong_attempts;
    m "cert.certify_p99_ms" "ms" (hist_pct_ms (phase_hist reg "certify") 99.0) strong_attempts;
    m "cert.pending_max" "count" (gauge_peak reg "pending_certifications") 1;
    m "cert.abort_ratio" "ratio" (U.History.abort_rate h) strong_attempts;
    m "wal.fsyncs_per_tx" "1/tx" (per_tx fsyncs) fsyncs;
    m "wal.bytes_per_tx" "B/tx" (per_tx (counter_total reg "wal_appended_bytes_total"))
      (committed_total r);
    c "wal.replay_entries" "count" (counter_total reg "replay_entries_total");
    c "catchup.gaps_detected" "count" (counter_total reg "replicate_gap_detected_total");
    c "catchup.repair_rounds" "count" (counter_total reg "repair_pull_rounds_total");
    c "catchup.repair_bytes" "B" (counter_total reg "repair_log_bytes_total");
    c "catchup.snapshot_bytes" "B" (counter_total reg "sync_snapshot_bytes_total");
    c "catchup.sync_log_bytes" "B" (counter_total reg "sync_log_bytes_total");
    c "catchup.local_bytes" "B" (counter_total reg "local_catchup_bytes_total");
    c "catchup.peer_drops" "count" (counter_total reg "sync_peer_drops_total");
    c "fd.suspicions" "count" (counter_total reg "fd_suspicions_total");
    c "fd.false_suspicions" "count" (counter_total reg "fd_false_suspicions_total");
    m "client.read_p50_ms" "ms" (ms_pct read 50.0) (Sim.Stats.count read);
    m "client.commit_causal_p50_ms" "ms" (ms_pct cc 50.0) (Sim.Stats.count cc);
    m "client.commit_strong_p50_ms" "ms" (ms_pct cs 50.0) (Sim.Stats.count cs);
    m "client.retries_per_tx" "1/tx"
      (float_of_int (attempts - arrivals) /. float_of_int (max 1 arrivals))
      arrivals;
    c "client.failovers" "count" (counter_total reg "client_failovers_total");
    c "load.sessions_peak" "count" r.stats.Openloop.peak_in_flight;
    m "outage_ms" "ms" (float_of_int (outage_us wl r) /. 1000.0)
      (List.length (faulted_dcs wl));
    m "recovery_ms" "ms"
      (float_of_int (List.fold_left max 0 r.recoveries) /. 1000.0)
      (List.length r.recoveries);
    m "failed_pct" "%" (100.0 *. float_of_int failed /. float_of_int (max 1 arrivals)) arrivals;
  ]

(* Deterministic fingerprint of a repetition: every simulated latency,
   rate and count, and the minor words allocated. Two repetitions of one
   seed must agree on it. Wall times are excluded, and so are the
   process-wide peak heap and the direct major allocations, whose
   accounting depends on the GC state a repetition starts from. *)
let fingerprint wl r =
  let sim =
    List.filter_map
      (fun m ->
        if m.name = "peak_heap_mb" || m.name = "alloc_mwords" then None
        else Some (m.name, m.value, m.n))
      (simulated wl r)
  in
  let reg = U.System.metrics r.sys and net = U.System.network r.sys in
  let counts =
    [
      ("minor_words", r.minor_words, 0);
      ("events", float_of_int r.events, 0);
      ("msgs", float_of_int (Network.messages_sent net), 0);
      ("acks", float_of_int (Network.acks_sent net), 0);
      ("retransmits", float_of_int (Network.retransmissions net), 0);
      ("bytes", float_of_int (counter_total reg "net_sent_bytes"), 0);
      ("recoveries", float_of_int (List.fold_left ( + ) 0 r.recoveries), 0);
      ("outage", float_of_int (outage_us wl r), 0);
    ]
  in
  sim @ counts

(* Fingerprint entries on which two repetitions disagree. *)
let divergence wl r r0 =
  List.filter_map
    (fun ((name, v, n), (_, v0, n0)) ->
      if v = v0 && n = n0 then None else Some (Fmt.str "%s %g (n=%d) vs %g (n=%d)" name v n v0 n0))
    (List.combine (fingerprint wl r) (fingerprint wl r0))

(* ------------------------------------------------------------------ *)
(* Output                                                               *)

let pp_metric ppf m = Fmt.pf ppf "metric %-32s %16.6f %-10s n=%d" m.name m.value m.unit_ m.n

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun m -> (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
             metrics) );
    ]

let write_spans (wl : workload) ~seed r =
  let dir = "perfbench-out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Fmt.str "%s-seed%d-spans.jsonl" wl.name seed) in
  let oc = open_out path in
  List.iter
    (fun sp ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("id", Json.Int sp.sp_id);
                ("parent", Json.Int sp.sp_parent);
                ("txn", Json.Int sp.sp_txn);
                ("name", Json.String sp.sp_name);
                ("start_us", Json.Int sp.sp_start);
                ("end_us", Json.Int sp.sp_stop);
              ]));
      output_char oc '\n')
    r.spans;
  close_out oc;
  path

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let describe (wl : workload) =
  Fmt.pr "# workload %s: open loop, Poisson %.0f tx/s over 3 DCs, %d partitions, \
          warm-up %.1f s + window %.1f s simulated, persistence=%b lossy=%b, %d fault steps@."
    wl.name wl.rate wl.partitions
    (float_of_int wl.warmup_us /. 1e6)
    (float_of_int wl.window_us /. 1e6)
    wl.persistence (wl.links <> None) (List.length wl.faults);
  List.iter (fun st -> Fmt.pr "#   fault %a@." U.Nemesis.pp_step st) wl.faults

let run (wl : workload) ~seed ~seconds ~trace =
  describe wl;
  let budget = if trace then seconds /. 2.0 else seconds in
  let report i (r : rep) =
    Fmt.pr "# repetition %d: setup %.3f s, run %.3f s, %d events@." i r.setup_s r.run_s r.events
  in
  let first = run_rep ~t0:process_start ~traced:false wl ~seed in
  report 1 first;
  (* Later repetitions start from a compacted heap, as the first starts
     from a fresh process. Only their times and verdicts are kept, so
     their deployments can be collected. *)
  let rec more acc =
    if wall () -. process_start >= budget then List.rev acc
    else begin
      Gc.compact ();
      let r = run_rep ~t0:(wall ()) ~traced:false wl ~seed in
      report (List.length acc + 2) r;
      let diverged =
        List.map
          (Fmt.str "repetition %d diverged from the first under the same seed: %s"
             (List.length acc + 2))
          (divergence wl r first)
      in
      more ((r.setup_s, r.run_s, r.failures @ diverged) :: acc)
    end
  in
  let later = more [] in
  let failures = first.failures @ List.concat_map (fun (_, _, f) -> f) later in
  let timing =
    timings
      ~setup:(first.setup_s :: List.map (fun (s, _, _) -> s) later)
      ~run:(first.run_s :: List.map (fun (_, r, _) -> r) later)
  in
  let e2e = timing @ simulated wl first in
  let run_s = (List.find (fun m -> m.name = "run_s") timing).value in
  let attempted = Array.length first.arrivals in
  let failed_ops = Array.fold_left (fun n a -> if a.a_committed then n else n + 1) 0 first.arrivals in
  Fmt.pr "# offered %.0f tx/s; %d arrivals, %d committed, %d failed@." wl.rate attempted
    (attempted - failed_ops) failed_ops;
  List.iter (fun m -> Fmt.pr "%a@." pp_metric m) e2e;
  let failures, reported =
    if not trace then (failures, e2e)
    else begin
      let t0 = wall () in
      Gc.compact ();
      let traced = run_rep ~t0 ~traced:true wl ~seed in
      let layer = per_layer wl ~plain:first traced in
      let overhead = 100.0 *. ((traced.run_s /. run_s) -. 1.0) in
      let dropped = Sim.Trace.dropped (U.System.trace traced.sys) in
      Fmt.pr "# traced run_s %.3f s vs untraced median %.3f s: tracing overhead %+.1f%%; \
              trace buffer %d events, %d dropped@."
        traced.run_s run_s overhead
        (Sim.Trace.length (U.System.trace traced.sys))
        dropped;
      Fmt.pr "# spans written to %s@." (write_spans wl ~seed traced);
      let layer =
        layer
        @ [
            { name = "trace.overhead_pct"; unit_ = "%"; value = overhead; n = 1 };
            { name = "trace.dropped"; unit_ = "count"; value = float_of_int dropped; n = 1 };
          ]
      in
      List.iter (fun m -> Fmt.pr "%a@." pp_metric m) layer;
      (failures @ traced.failures, layer)
    end
  in
  List.iter (fun f -> Fmt.pr "# CHECK FAILED: %s@." f) failures;
  let correct = failures = [] in
  let failed = if correct then failed_ops else attempted in
  print_endline (Json.to_string (result_json ~correct ~attempted ~failed reported))

(* ------------------------------------------------------------------ *)
(* Self-check (dune runtest)                                            *)

let selfcheck benchmark_json =
  let errors = ref [] in
  let check cond fmt = Fmt.kstr (fun s -> if not cond then errors := s :: !errors) fmt in
  let doc = Json.of_string (In_channel.with_open_bin benchmark_json In_channel.input_all) in
  let names section =
    match Option.bind (Json.member section doc) Json.to_list_opt with
    | Some l -> List.filter_map (fun m -> Option.bind (Json.member "name" m) Json.to_string_opt) l
    | None -> []
  in
  check (names "end_to_end" = end_to_end_names) "BENCHMARK.json end_to_end differs from the benchmark's";
  List.iter
    (fun name ->
      match List.find_opt (fun (wl : workload) -> wl.name = name) workloads with
      | None -> check false "BENCHMARK.json names unknown workload %s" name
      | Some wl ->
          let wl = scaled wl 0.1 in
          let rep ~traced seed = run_rep ~t0:(wall ()) ~traced wl ~seed in
          let u1 = rep ~traced:false 1 and u2 = rep ~traced:false 1 in
          let t1 = rep ~traced:true 1 and t2 = rep ~traced:true 1 in
          let other = rep ~traced:false 2 in
          List.iter
            (fun r ->
              check (r.failures = []) "%s: correctness gate failed: %s" name
                (String.concat "; " r.failures))
            [ u1; t1 ];
          check (divergence wl u1 u2 = []) "%s: two runs of seed 1 differ: %s" name
            (String.concat ", " (divergence wl u1 u2));
          (* per-layer counts; wall shares and rates, and the GC-state
             dependent major-heap figures, vary by design *)
          let counts plain r =
            List.filter_map
              (fun m ->
                match m.name with
                | "engine.events_per_s" | "engine.words_per_event" | "engine.major_gcs"
                | "net.wall_share" | "replica.tick_wall_share" ->
                    None
                | _ -> Some (m.name, m.value))
              (per_layer wl ~plain r)
          in
          List.iter2
            (fun (m, v) (_, v') ->
              check (v = v') "%s: per-layer %s differs between two runs of seed 1: %g vs %g" name m v v')
            (counts u1 t1) (counts u2 t2);
          check
            (Array.map (fun x -> x.a_at) u1.arrivals <> Array.map (fun x -> x.a_at) other.arrivals)
            "%s: seed 2 gives the same arrival schedule as seed 1" name;
          (* every metric prints as "metric NAME VALUE UNIT n=COUNT" *)
          let printed =
            List.map (fun m -> Fmt.str "%a" pp_metric m)
              (timings ~setup:[ u1.setup_s ] ~run:[ u1.run_s ]
              @ simulated wl u1 @ per_layer wl ~plain:u1 t1)
          in
          let prints name =
            List.exists
              (fun line ->
                match String.split_on_char ' ' line |> List.filter (( <> ) "") with
                | [ "metric"; n; _; _; count ] -> n = name && String.starts_with ~prefix:"n=" count
                | _ -> false)
              printed
          in
          List.iter
            (fun m ->
              if not (String.starts_with ~prefix:"trace." m) then
                check (prints m) "%s: metric %s does not print with its unit and count" name m)
            (names "end_to_end" @ names "per_layer");
          Fmt.pr "selfcheck %s: %d arrivals@." name (Array.length u1.arrivals))
    (names "workloads");
  match !errors with
  | [] -> print_endline "selfcheck: ok"
  | errs ->
      List.iter (fun e -> prerr_endline ("selfcheck: " ^ e)) (List.rev errs);
      exit 1

(* ------------------------------------------------------------------ *)

let usage =
  "perfbench.exe --workload (rubis|strong_disk|transport|churn) --seed N --seconds S --trace (0|1)\n\
   perfbench.exe --selfcheck BENCHMARK.json"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30.0 and trace = ref 0 in
  let rate = ref 0.0 in
  let selfcheck_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the inputs");
      ("--seconds", Arg.Set_float seconds, "S wall seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 traced run with per-layer metrics");
      ("--rate", Arg.Set_float rate, "R override the offered rate, tx/s (knee ramps)");
      ("--selfcheck", Arg.Set_string selfcheck_file, "FILE determinism self-check");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !selfcheck_file <> "" then selfcheck !selfcheck_file
  else
    match List.find_opt (fun (wl : workload) -> wl.name = !workload) workloads with
    | None ->
        prerr_endline usage;
        exit 2
    | Some wl ->
        let wl = if !rate > 0.0 then { wl with rate = !rate } else wl in
        run wl ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
