(* Veil-Fleet: multi-guest host, open-loop traffic, histogram merging
   and the cross-tenant isolation oracle (ISSUE 10). *)

module M = Obs.Metrics
module A = Fleet.Arrival
module FP = Chaos.Fault_plan

(* --- Metrics.merge (the bugfix satellite) --- *)

(* The regression that motivated [merge]: fleet aggregation built on
   [diff] applies Prometheus counter-reset semantics — any guest whose
   count is *lower* than the previous operand's is treated as a
   restarted process and its value taken verbatim instead of summed.
   Merging registries of co-tenants is not snapshot differencing. *)
let test_merge_no_counter_reset () =
  let a = M.create () and b = M.create () in
  M.add (M.counter a "fleet.requests") 100;
  M.add (M.counter b "fleet.requests") 30;
  let merged = M.merge [ a; b ] in
  match M.find merged "fleet.requests" with
  | Some (M.Counter c) ->
      (* reset semantics would report 30 ("b restarted"); a sum is 130 *)
      Alcotest.(check int) "counters sum, never reset" 130 (M.value c)
  | _ -> Alcotest.fail "merged registry lost the counter"

(* Two guests with bimodal latency: one all-fast, one with a slow
   tail.  The fleet p99 must surface the slow guest's tail — averaging
   per-guest p99s (or dropping one side, as the reset bug did) hides
   it. *)
let test_merge_bimodal_p99 () =
  let fast = M.create () and slow = M.create () in
  let hf = M.histogram fast "lat" and hs = M.histogram slow "lat" in
  for _ = 1 to 980 do
    M.observe hf 1_000
  done;
  for _ = 1 to 20 do
    M.observe hs 5_000_000
  done;
  let merged = M.merge [ fast; slow ] in
  match M.find merged "lat" with
  | Some (M.Histogram h) ->
      Alcotest.(check int) "merged count" 1000 (M.hist_count h);
      Alcotest.(check bool)
        "fleet p99 lands in the slow mode"
        true
        (M.percentile h 99.0 >= 5_000_000);
      Alcotest.(check bool) "fleet p50 stays in the fast mode" true (M.percentile h 50.0 < 5_000);
      Alcotest.(check int) "min spans both operands" (M.hist_min hf) (M.hist_min h);
      Alcotest.(check int) "max spans both operands" (M.hist_max hs) (M.hist_max h)
  | _ -> Alcotest.fail "merged registry lost the histogram"

let test_merge_gauges_and_empties () =
  let a = M.create () and b = M.create () and c = M.create () in
  M.set (M.gauge a "g") 7;
  M.set (M.gauge b "g") 5;
  ignore (M.histogram a "h");
  (* empty: must not clobber min/max *)
  M.observe (M.histogram b "h") 42;
  let merged = M.merge [ a; b; c ] in
  (match M.find merged "g" with
  | Some (M.Gauge g) -> Alcotest.(check int) "gauges sum" 12 (M.gauge_value g)
  | _ -> Alcotest.fail "merged registry lost the gauge");
  match M.find merged "h" with
  | Some (M.Histogram h) ->
      Alcotest.(check int) "empty operand contributes nothing" 1 (M.hist_count h);
      Alcotest.(check int) "min survives the empty operand" 42 (M.hist_min h);
      Alcotest.(check int) "max survives the empty operand" 42 (M.hist_max h)
  | _ -> Alcotest.fail "merged registry lost the histogram"

(* --- arrival PRNG: domain separation from the chaos family --- *)

(* Reference reimplementation of lib/chaos/fault_plan.ml's raw stream:
   same state derivation, same 13/7/17 xorshift, raw state as output. *)
let chaos_stream seed n =
  let mixed = (seed * 0x9E3779B1) lxor (seed lsr 16) lxor 0x6A09E667 in
  let st = ref ((mixed land max_int) lor 1) in
  List.init n (fun _ ->
      let x = !st in
      let x = x lxor ((x lsl 13) land max_int) in
      let x = x lxor (x lsr 7) in
      let x = x lxor ((x lsl 17) land max_int) in
      st := x;
      x)

(* The same adversarial seeds as the chaos regression (t_chaos.ml):
   0, the int extremes, and the two seeds that zero the chaos mix.
   For each, the arrival stream must be alive (well-mixed, replayable)
   AND nowhere equal to the chaos stream under the *same* seed — fleet
   runs reuse one operator seed for both families. *)
let test_arrival_adversarial_domain_separation () =
  let seeds = [ 0; max_int; min_int; 0x396b1b8a8b9b10bc; -3824519917198271814 ] in
  List.iter
    (fun seed ->
      let tag = Printf.sprintf "seed %#x" seed in
      let arrivals stream =
        let t = A.make ~seed ~stream (A.Poisson { rate = 1000.0 }) in
        List.init 64 (fun _ -> A.draw t)
      in
      let arr = arrivals 0 in
      let distinct = Hashtbl.create 64 in
      List.iter (fun x -> Hashtbl.replace distinct x ()) arr;
      Alcotest.(check bool) (tag ^ ": draws are non-degenerate") true (Hashtbl.length distinct > 32);
      Alcotest.(check (list int)) (tag ^ ": replay-identical") arr (arrivals 0);
      Alcotest.(check bool) (tag ^ ": streams are split") true (arr <> arrivals 1);
      let chaos = chaos_stream seed 64 in
      Alcotest.(check bool) (tag ^ ": not the chaos stream") true (arr <> chaos);
      let collisions = List.fold_left2 (fun n a c -> if a = c then n + 1 else n) 0 arr chaos in
      Alcotest.(check int) (tag ^ ": no positionwise collisions") 0 collisions)
    seeds

let test_arrival_poisson_mean_gap () =
  let rate = 10_000.0 in
  let t = A.make ~seed:7 ~stream:0 (A.Poisson { rate }) in
  let n = 4000 in
  let total = ref 0 in
  for _ = 1 to n do
    let g = A.next_gap t in
    Alcotest.(check bool) "gaps are non-negative" true (g >= 0);
    total := !total + g
  done;
  let mean = float_of_int !total /. float_of_int n in
  let expect = float_of_int Sevsnp.Cycles.freq_hz /. rate in
  Alcotest.(check bool)
    (Printf.sprintf "mean gap %.0f within 10%% of %.0f" mean expect)
    true
    (abs_float (mean -. expect) < 0.10 *. expect)

(* An MMPP with a hot high state must be burstier than Poisson at the
   same mean rate: squared coefficient of variation of gaps > 1 (for
   exponential gaps it is ~1). *)
let test_arrival_mmpp_burstiness () =
  let proc = A.Mmpp { low = 2_000.0; high = 50_000.0; dwell_low = 0.004; dwell_high = 0.001 } in
  let mean_rate = A.mean_rate proc in
  Alcotest.(check bool)
    "dwell-weighted mean rate"
    true
    (abs_float (mean_rate -. ((2_000.0 *. 0.004) +. (50_000.0 *. 0.001)) /. 0.005) < 1e-6);
  let t = A.make ~seed:11 ~stream:0 proc in
  let n = 6000 in
  let gaps = Array.init n (fun _ -> float_of_int (A.next_gap t)) in
  let mean = Array.fold_left ( +. ) 0.0 gaps /. float_of_int n in
  let var =
    Array.fold_left (fun acc g -> acc +. ((g -. mean) ** 2.0)) 0.0 gaps /. float_of_int n
  in
  let scv = var /. (mean *. mean) in
  Alcotest.(check bool)
    (Printf.sprintf "MMPP gaps are overdispersed (scv %.2f > 1.3)" scv)
    true (scv > 1.3)

let test_arrival_pareto_bounds () =
  let t = A.make ~seed:23 ~stream:0 (A.Poisson { rate = 1.0 }) in
  let saw_above_min = ref false in
  let total = ref 0 in
  for _ = 1 to 2000 do
    let s = A.pareto_size t ~xm:64 ~alpha:1.3 ~cap:4096 in
    Alcotest.(check bool) "within [xm, cap]" true (s >= 64 && s <= 4096);
    if s > 64 then saw_above_min := true;
    total := !total + s
  done;
  Alcotest.(check bool) "tail actually spreads" true !saw_above_min;
  Alcotest.(check bool) "heavy tail lifts the mean" true (!total / 2000 > 80)

(* --- the fleet itself --- *)

let quick_cfg = { Fleet.default with guests = 2; vcpus = 2; requests = 60; seed = 41 }

let check_report cfg (r : Fleet.report) =
  Alcotest.(check int) "every guest reported" cfg.Fleet.guests (Array.length r.Fleet.r_guests);
  let served =
    Array.fold_left (fun acc g -> acc + g.Fleet.gr_requests) 0 r.Fleet.r_guests
  in
  Alcotest.(check int) "all arrivals served" cfg.Fleet.requests served;
  Alcotest.(check int)
    "LB journal has one entry per arrival"
    cfg.Fleet.requests
    (String.length r.Fleet.r_lb_journal);
  Alcotest.(check bool) "wall clock advanced" true (r.Fleet.r_wall_cycles > 0);
  Alcotest.(check bool) "throughput positive" true (r.Fleet.r_throughput > 0.0);
  Alcotest.(check bool)
    "percentiles ordered"
    true
    (r.Fleet.r_p50 <= r.Fleet.r_p99 && r.Fleet.r_p99 <= r.Fleet.r_p999);
  Array.iter
    (fun g ->
      Alcotest.(check int)
        "per-guest journal matches served count"
        g.Fleet.gr_requests
        (String.length g.Fleet.gr_journal);
      Alcotest.(check bool)
        "monitor saw traffic"
        true
        (g.Fleet.gr_wait.Veil_core.Monitor.ws_entries > 0);
      Alcotest.(check bool) "protected log chain verifies" true g.Fleet.gr_slog_ok;
      Alcotest.(check bool)
        "log fetched over the attested channel after reconnect"
        true
        (g.Fleet.gr_log_lines > 0))
    r.Fleet.r_guests

let test_fleet_http_smoke () =
  let r = Fleet.run quick_cfg in
  check_report quick_cfg r;
  (* round-robin: served counts differ by at most one *)
  let a = r.Fleet.r_guests.(0).Fleet.gr_requests
  and b = r.Fleet.r_guests.(1).Fleet.gr_requests in
  Alcotest.(check bool) "RR balances" true (abs (a - b) <= 1)

let test_fleet_memcached_smoke () =
  let cfg = { quick_cfg with workload = Fleet.Memcached; requests = 40 } in
  check_report cfg (Fleet.run cfg)

let test_fleet_sqldb_smoke () =
  let cfg = { quick_cfg with workload = Fleet.Sqldb; requests = 40 } in
  check_report cfg (Fleet.run cfg)

let test_fleet_replay_deterministic () =
  let j () = Obs.Json.to_string (Fleet.report_json (Fleet.run quick_cfg)) in
  Alcotest.(check string) "identical config, identical report" (j ()) (j ())

let test_fleet_rings_pulse_chaos () =
  let cfg = { quick_cfg with rings = true; pulse = Some 300_000; chaos = true; requests = 40 } in
  let r = Fleet.run cfg in
  check_report cfg r;
  let hits = Array.fold_left (fun acc g -> acc + g.Fleet.gr_chaos_hits) 0 r.Fleet.r_guests in
  Alcotest.(check bool) "derived fault plans actually fired" true (hits > 0);
  let j () = Obs.Json.to_string (Fleet.report_json (Fleet.run cfg)) in
  Alcotest.(check string) "still replay-identical under rings+pulse+chaos" (j ()) (j ())

(* Guest identity is a function of guest id alone, and dispatch is
   index-driven — so guest g of a 2-guest closed-loop run must be
   indistinguishable from a 1-guest run booted as guest g with its
   share of the requests.  In particular the serialized-monitor wait
   ledger (the queueing report) must match entry for entry: co-tenancy
   on the host must introduce zero cross-guest queueing. *)
let test_fleet_wait_ledger_isolation () =
  let cfg =
    { quick_cfg with mode = Fleet.Closed_loop; requests = 80; workload = Fleet.Http }
  in
  let both = Fleet.run cfg in
  let solo id =
    let r =
      Fleet.run { cfg with guests = 1; requests = cfg.Fleet.requests / 2; first_guest = id }
    in
    r.Fleet.r_guests.(0)
  in
  Array.iter
    (fun (g : Fleet.guest_report) ->
      let alone = solo g.Fleet.gr_id in
      let tag = Printf.sprintf "guest %d" g.Fleet.gr_id in
      Alcotest.(check int) (tag ^ ": same requests") alone.Fleet.gr_requests g.Fleet.gr_requests;
      Alcotest.(check string) (tag ^ ": same schedule") alone.Fleet.gr_journal g.Fleet.gr_journal;
      Alcotest.(check string)
        (tag ^ ": same data digest")
        alone.Fleet.gr_data_digest g.Fleet.gr_data_digest;
      Alcotest.(check string)
        (tag ^ ": same histogram digest")
        alone.Fleet.gr_hist_digest g.Fleet.gr_hist_digest;
      Alcotest.(check bool)
        (tag ^ ": identical wait ledger")
        true
        (alone.Fleet.gr_wait = g.Fleet.gr_wait))
    both.Fleet.r_guests

(* Open vs closed loop on the same overloaded box: the closed-loop
   client only offers the next request when the previous one returns,
   so its "latency" omits exactly the queueing a real arrival stream
   would suffer (coordinated omission).  The open loop at 3x capacity
   must report a far larger p99 sojourn. *)
let test_fleet_coordinated_omission () =
  let base = { quick_cfg with guests = 1; vcpus = 1; requests = 50 } in
  let closed = Fleet.run { base with mode = Fleet.Closed_loop } in
  let rate = Fleet.rate_for base ~utilization:3.0 ~mean_service_cycles:closed.Fleet.r_mean in
  let open_ =
    Fleet.run { base with mode = Fleet.Open_loop; process = Fleet.Arrival.Poisson { rate } }
  in
  Alcotest.(check bool)
    (Printf.sprintf "open-loop p99 %d >> closed-loop p99 %d" open_.Fleet.r_p99 closed.Fleet.r_p99)
    true
    (open_.Fleet.r_p99 > 2 * closed.Fleet.r_p99);
  Alcotest.(check bool)
    "overload shows up as achieved < offered"
    true
    (open_.Fleet.r_throughput < open_.Fleet.r_offered)

(* --- pinned reports --- *)

(* The first 16 hex digits of the SHA-256 of the JSON report and of the
   load-balancer journal.  Any change to how the fleet schedules its
   guests (order, grouping, parallelism) must leave these bytes alone. *)
let pin s =
  String.sub (Veil_crypto.Sha256.hex_of_digest (Veil_crypto.Sha256.digest_string s)) 0 16

let check_pins tag cfg ~report ~journal =
  let r = Fleet.run cfg in
  Alcotest.(check string) (tag ^ ": report") report (pin (Obs.Json.to_string (Fleet.report_json r)));
  Alcotest.(check string) (tag ^ ": lb journal") journal (pin r.Fleet.r_lb_journal)

let test_fleet_pinned_reports () =
  let pins =
    [
      ("quick", quick_cfg, "e4874341bd567bbc", "5e3a1af513cb5ea4");
      ( "rings+pulse+chaos",
        { quick_cfg with rings = true; pulse = Some 300_000; chaos = true; requests = 40 },
        "a0415da5c2a991b4",
        "e1516692d9f536a9" );
      ( "hostile",
        { quick_cfg with guests = 3; hostile = Some 0; requests = 72 },
        "03f1c05b454dac6e",
        "e434be915e35c256" );
      ( "least-loaded",
        { quick_cfg with guests = 3; lb = Fleet.Least_loaded; requests = 90 },
        "48d42a261f9b827b",
        "0e4991bffc802942" );
      ( "closed loop",
        { quick_cfg with guests = 3; mode = Fleet.Closed_loop; requests = 90 },
        "1c9918d4b02892d6",
        "4ed176ff8c80727c" );
      ( "memcached mmpp",
        {
          quick_cfg with
          guests = 5;
          workload = Fleet.Memcached;
          requests = 100;
          process = A.Mmpp { low = 1000.0; high = 8000.0; dwell_low = 0.01; dwell_high = 0.002 };
        },
        "eeb889bd8941e93f",
        "9fdf78e78f851ce8" );
      ( "sqldb",
        { quick_cfg with guests = 3; workload = Fleet.Sqldb; requests = 90 },
        "21c3c7d7a07aabb7",
        "4ed176ff8c80727c" );
    ]
  in
  List.iter (fun (tag, cfg, report, journal) -> check_pins tag cfg ~report ~journal) pins

let test_fleet_cross_tenant_oracle () =
  match
    List.find_opt
      (fun a -> Veil_attacks.Attacks.name a = "fleet-compromised-guest-cross-tenant")
      (Veil_attacks.Attacks.fleet_attacks ())
  with
  | None -> Alcotest.fail "fleet attack missing from the harness"
  | Some atk ->
      let o = Veil_attacks.Attacks.run atk in
      Alcotest.(check bool)
        (Veil_attacks.Attacks.outcome_to_string o)
        true
        (Veil_attacks.Attacks.is_blocked o)

let suite =
  [
    ("merge: counters sum without reset semantics", `Quick, test_merge_no_counter_reset);
    ("merge: bimodal fleet p99 surfaces the slow guest", `Quick, test_merge_bimodal_p99);
    ("merge: gauges sum, empty histograms are inert", `Quick, test_merge_gauges_and_empties);
    ( "arrival: adversarial seeds, domain-separated from chaos",
      `Quick,
      test_arrival_adversarial_domain_separation );
    ("arrival: poisson mean inter-arrival gap", `Quick, test_arrival_poisson_mean_gap);
    ("arrival: mmpp is burstier than poisson", `Quick, test_arrival_mmpp_burstiness);
    ("arrival: pareto sizes are bounded and heavy-tailed", `Quick, test_arrival_pareto_bounds);
    ("fleet: http smoke (2 guests x 2 vcpus)", `Quick, test_fleet_http_smoke);
    ("fleet: memcached smoke", `Quick, test_fleet_memcached_smoke);
    ("fleet: sqldb smoke", `Quick, test_fleet_sqldb_smoke);
    ("fleet: replay-deterministic", `Quick, test_fleet_replay_deterministic);
    ("fleet: rings + pulse + derived chaos plans", `Quick, test_fleet_rings_pulse_chaos);
    ("fleet: wait ledger shows zero cross-guest queueing", `Quick, test_fleet_wait_ledger_isolation);
    ("fleet: closed loop coordinately omits queueing", `Quick, test_fleet_coordinated_omission);
    ("fleet: compromised guest cannot move a co-tenant", `Quick, test_fleet_cross_tenant_oracle);
    ("fleet: pinned reports and lb journals", `Quick, test_fleet_pinned_reports);
  ]
