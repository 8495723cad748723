(* Veil-Trace/Veil-Prof observability tests: ring-buffer semantics,
   span nesting, histogram percentile exactness, Chrome trace_event
   export (read back with Obs.Json.parse), and
   the cycle-attribution profiler's self/total accounting. *)

module Tr = Obs.Trace
module M = Obs.Metrics
module P = Obs.Profiler
module F = Obs.Folded

(* --- ring buffer --- *)

let test_ring_wraparound () =
  let t = Tr.create ~capacity:16 () in
  Tr.set_enabled t true;
  for i = 0 to 39 do
    Tr.emit t ~arg:i ~vcpu:0 ~vmpl:0 ~ts:i Tr.Npf
  done;
  Alcotest.(check int) "emitted counts everything" 40 (Tr.emitted t);
  Alcotest.(check int) "stored clamps to capacity" 16 (Tr.stored t);
  let args = List.map (fun e -> e.Tr.ev_arg) (Tr.events t) in
  Alcotest.(check (list int)) "keeps the newest, oldest first" (List.init 16 (fun i -> 24 + i)) args

let test_disabled_is_noop () =
  let t = Tr.create ~capacity:16 () in
  Tr.emit t ~vcpu:0 ~vmpl:0 ~ts:1 Tr.Vmgexit;
  Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:2 "dead";
  Alcotest.(check bool) "disabled by default" false (Tr.enabled t);
  Alcotest.(check int) "nothing emitted while disabled" 0 (Tr.emitted t)

let test_clear () =
  let t = Tr.create ~capacity:16 () in
  Tr.set_enabled t true;
  Tr.emit t ~vcpu:0 ~vmpl:0 ~ts:1 Tr.Vmenter;
  Tr.clear t;
  Alcotest.(check int) "clear drops events" 0 (Tr.stored t);
  Alcotest.(check bool) "clear keeps the flag" true (Tr.enabled t)

(* Every platform owns a tracer, and a Veil-Explore snapshot marshals
   the whole platform: the ring must not exist until it is enabled. *)
let test_lazy_ring () =
  let t = (Sevsnp.Platform.create ~npages:64 ()).Sevsnp.Platform.tracer in
  let words () = Obj.reachable_words (Obj.repr t) in
  Alcotest.(check bool) "no ring before enable" true (words () < 64);
  Tr.clear t;
  Alcotest.(check int) "clear on a never-enabled tracer" 0 (Tr.stored t);
  Tr.set_enabled t true;
  Alcotest.(check bool) "ring allocated on enable" true (words () > Tr.capacity t);
  Tr.emit t ~arg:7 ~vcpu:0 ~vmpl:0 ~ts:1 Tr.Vmenter;
  Alcotest.(check (list int)) "records once enabled" [ 7 ]
    (List.map (fun e -> e.Tr.ev_arg) (Tr.events t))

(* Spans must survive the ring evicting their Begin records: emit
   enough nested spans to wrap a small ring, then close them all. *)
let test_ring_wraparound_spans () =
  let t = Tr.create ~capacity:16 () in
  Tr.set_enabled t true;
  for i = 0 to 19 do
    Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:i (Printf.sprintf "s%d" i)
  done;
  for i = 19 downto 0 do
    Tr.span_end t ~vcpu:0 ~vmpl:0 ~ts:(40 - i) (Printf.sprintf "s%d" i)
  done;
  Alcotest.(check int) "all begins and ends counted" 40 (Tr.emitted t);
  Alcotest.(check int) "ring holds the newest 16" 16 (Tr.stored t);
  (* every surviving record is an End whose Begin wrapped out *)
  let kinds =
    List.map
      (fun e ->
        match (e.Tr.ev_kind, e.Tr.ev_phase) with Tr.Span n, Tr.End -> n | _ -> "?")
      (Tr.events t)
  in
  Alcotest.(check (list string)) "oldest-first ends, begins evicted"
    (List.init 16 (fun i -> Printf.sprintf "s%d" (15 - i)))
    kinds;
  Alcotest.(check bool) "orphan ends keep the trace well-nested" true (Tr.well_nested t)

(* --- span nesting --- *)

let test_span_nesting () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:10 "outer";
  Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:20 "inner";
  Tr.span_end t ~vcpu:0 ~vmpl:0 ~ts:30 "inner";
  Tr.span_end t ~vcpu:0 ~vmpl:0 ~ts:40 "outer";
  (* interleaved on another VCPU: stacks are per-VCPU *)
  Tr.span_begin t ~vcpu:1 ~vmpl:0 ~ts:15 "other";
  Tr.span_end t ~vcpu:1 ~vmpl:0 ~ts:25 "other";
  Alcotest.(check bool) "proper LIFO nesting" true (Tr.well_nested t);
  Alcotest.(check int) "a begin/end pair counts once" 1 (Tr.count_kind t (Tr.Span "outer"))

let test_span_misnesting () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:10 "a";
  Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:20 "b";
  Tr.span_end t ~vcpu:0 ~vmpl:0 ~ts:30 "a";
  Alcotest.(check bool) "crossed spans are flagged" false (Tr.well_nested t)

let test_span_open_and_orphan_tolerated () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  (* An End whose Begin wrapped out of the ring, then a still-open span *)
  Tr.span_end t ~vcpu:0 ~vmpl:0 ~ts:5 "evicted";
  Tr.span_begin t ~vcpu:0 ~vmpl:0 ~ts:10 "open";
  Alcotest.(check bool) "orphan end / open begin tolerated" true (Tr.well_nested t)

(* --- metrics --- *)

let test_histogram_percentiles () =
  let m = M.create () in
  let h = M.histogram m "cycles" in
  for _ = 1 to 50 do M.observe h 16 done;
  for _ = 1 to 45 do M.observe h 64 done;
  for _ = 1 to 5 do M.observe h 1024 done;
  Alcotest.(check int) "count" 100 (M.hist_count h);
  Alcotest.(check int) "sum" ((50 * 16) + (45 * 64) + (5 * 1024)) (M.hist_sum h);
  Alcotest.(check int) "min" 16 (M.hist_min h);
  Alcotest.(check int) "max" 1024 (M.hist_max h);
  (* Upper bucket bounds (conservative estimate), clamped to the max:
     16 lands in [16,31], 64 in [64,127], 1024 in [1024,2047]. *)
  Alcotest.(check int) "p50 is the bucket upper bound" 31 (M.percentile h 50.0);
  Alcotest.(check int) "p95 is the bucket upper bound" 127 (M.percentile h 95.0);
  Alcotest.(check int) "p99 clamps to the observed max" 1024 (M.percentile h 99.0);
  Alcotest.(check (float 1e-9)) "mean is exact (sum/count)"
    (float_of_int ((50 * 16) + (45 * 64) + (5 * 1024)) /. 100.0)
    (M.mean h);
  (* Regression: a histogram of identical samples must never report a
     percentile *below* every sample (the old lower-bound answer said
     p50 = 512 for 1000-cycle observations — under-reporting by ~2x). *)
  let h2 = M.histogram m "identical" in
  for _ = 1 to 10 do M.observe h2 1000 done;
  Alcotest.(check int) "p50 of identical samples is the sample" 1000 (M.percentile h2 50.0);
  Alcotest.(check int) "p90 of identical samples is the sample" 1000 (M.percentile h2 90.0)

let test_counter_intern () =
  let m = M.create () in
  let a = M.counter m "x" and b = M.counter m "x" in
  M.incr a;
  M.add b 4;
  Alcotest.(check int) "same name, same storage" 5 (M.value a);
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics: \"x\" is already registered as a counter") (fun () ->
      ignore (M.gauge m "x"))

let test_reset () =
  let m = M.create () in
  let c = M.counter m "c" and g = M.gauge m "g" and h = M.histogram m "h" in
  M.incr c;
  M.set g 7;
  M.observe h 32;
  M.reset m;
  Alcotest.(check int) "counter zeroed" 0 (M.value c);
  Alcotest.(check int) "gauge zeroed" 0 (M.gauge_value g);
  Alcotest.(check int) "histogram zeroed" 0 (M.hist_count h);
  Alcotest.(check (list string)) "registrations survive" [ "c"; "g"; "h" ] (M.names m)

(* [merge [r]] is a detached copy: it never runs [r]'s refresh hook,
   and nothing done to [r] afterwards reaches it.  Veil-Fleet keeps such
   copies so that a finished guest, which its live registry's hook
   captures, can be freed. *)
let test_merge_detached () =
  let r = M.create () in
  let c = M.counter r "c" and g = M.gauge r "g" and h = M.histogram r "h" in
  M.add c 3;
  M.set g 5;
  M.observe h 100;
  let hook_runs = ref 0 in
  M.set_refresh r (fun () ->
      incr hook_runs;
      M.set g 99);
  let copy = M.merge [ r ] in
  let dumped = M.dump copy in
  Alcotest.(check int) "merging and dumping the copy never run the hook" 0 !hook_runs;
  (match M.find copy "g" with
  | Some (M.Gauge cg) -> Alcotest.(check int) "copy holds the value at merge time" 5 (M.gauge_value cg)
  | _ -> Alcotest.fail "copy lost the gauge");
  M.add c 10;
  M.set g 42;
  M.observe h 1_000_000;
  ignore (M.counter r "late");
  ignore (M.dump r);
  Alcotest.(check string) "later changes to the source stay out of the copy" dumped (M.dump copy);
  Alcotest.(check int) "only the source's own dump ran its hook" 1 !hook_runs

(* --- exporter output, read back through the codec --- *)

module J = Obs.Json

let parse_json s =
  match J.parse s with Ok v -> v | Error e -> Alcotest.fail ("exporter output is not JSON: " ^ e)

let field = J.member

let num_exn name j =
  match field name j with
  | Some (J.Int n) -> n
  | Some (J.Num s) -> int_of_float (float_of_string s)
  | _ -> failwith ("missing number " ^ name)

let str_exn name j =
  match field name j with Some (J.Str s) -> s | _ -> failwith ("missing string " ^ name)

let test_histogram_p100_true_max () =
  let m = M.create () in
  let h = M.histogram m "h" in
  M.observe h 3;
  M.observe h 1000;
  (* 1000 lands in the [512, 1024) bucket — p100 must report the true
     observed max, not the bucket bound. *)
  Alcotest.(check int) "p100 is the observed max" 1000 (M.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "mean of {3, 1000}" 501.5 (M.mean h);
  (match field "histograms" (parse_json (J.to_string (M.to_json m))) with
  | Some hs -> (
      match field "h" hs with
      | Some hj ->
          Alcotest.(check int) "json mean" 501 (num_exn "mean" hj);
          Alcotest.(check int) "json max" 1000 (num_exn "max" hj)
      | None -> Alcotest.fail "histogram h missing from JSON")
  | None -> Alcotest.fail "no histograms object");
  let dumped = M.dump m in
  let rec contains i =
    i + 5 <= String.length dumped && (String.sub dumped i 5 = "mean=" || contains (i + 1))
  in
  Alcotest.(check bool) "dump shows the mean" true (contains 0)

(* --- Chrome exporter --- *)

let test_chrome_export () =
  let t = Tr.create ~capacity:256 () in
  Tr.set_enabled t true;
  (* Two VCPUs, events deliberately emitted with a Complete span whose
     start predates already-emitted instants — the exporter must sort. *)
  Tr.emit t ~vcpu:0 ~vmpl:0 ~ts:100 ~arg:0 ~id:7 Tr.Vmgexit;
  Tr.emit t ~vcpu:1 ~vmpl:0 ~ts:150 ~arg:1 Tr.Vmgexit;
  Tr.emit t ~vcpu:0 ~vmpl:2 ~ts:900 Tr.Vmenter;
  Tr.complete t ~bucket:"switch" ~arg:2 ~vcpu:0 ~vmpl:2 ~ts:200 ~dur:700 Tr.Domain_switch;
  Tr.complete t ~bucket:"kernel" ~arg:39 ~vcpu:1 ~vmpl:3 ~ts:300 ~dur:50 Tr.Syscall;
  Tr.span_begin t ~bucket:"monitor" ~vcpu:0 ~vmpl:0 ~ts:1000 "os_call";
  Tr.span_end t ~vcpu:0 ~vmpl:0 ~ts:1100 "os_call";
  let json = parse_json (Obs.Chrome_trace.to_json t) in
  let evs = match field "traceEvents" json with Some (J.List l) -> l | _ -> failwith "no traceEvents" in
  let is_meta e = str_exn "ph" e = "M" in
  let data = List.filter (fun e -> not (is_meta e)) evs in
  Alcotest.(check int) "all seven events exported" 7 (List.length data);
  (* per-track (pid = VMPL) timestamps must be monotone non-decreasing *)
  let last = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let pid = num_exn "pid" e and ts = num_exn "ts" e in
      let prev = try Hashtbl.find last pid with Not_found -> min_int in
      Alcotest.(check bool)
        (Printf.sprintf "vmpl %d ts monotonic (%d >= %d)" pid ts prev)
        true (ts >= prev);
      Hashtbl.replace last pid ts)
    data;
  (* causal trace ids ride into the args object; id=0 is omitted *)
  let ids =
    List.filter_map
      (fun e ->
        match field "args" e with
        | Some a -> (match field "id" a with Some (J.Int n) -> Some n | _ -> None)
        | None -> None)
      data
  in
  Alcotest.(check (list int)) "only the tagged event carries its id" [ 7 ] ids;
  (* Complete spans carry their duration *)
  let durs =
    List.filter_map (fun e -> if str_exn "ph" e = "X" then Some (num_exn "dur" e) else None) data
  in
  Alcotest.(check (list int)) "complete spans keep durations" [ 700; 50 ] durs;
  (* metadata: one named process per VMPL, one named thread per VCPU *)
  let meta_names which =
    List.filter_map
      (fun e ->
        if is_meta e && str_exn "name" e = which then
          match field "args" e with Some a -> Some (str_exn "name" a) | None -> None
        else None)
      evs
  in
  Alcotest.(check (list string)) "one process per vmpl" [ "vmpl0"; "vmpl2"; "vmpl3" ]
    (List.sort compare (meta_names "process_name"));
  Alcotest.(check (list string)) "threads named per (vmpl, vcpu) pair"
    [ "vcpu0"; "vcpu0"; "vcpu1"; "vcpu1" ]
    (List.sort compare (meta_names "thread_name"))

let test_metrics_json_parses () =
  let m = M.create () in
  M.incr (M.counter m "a.b");
  M.set (M.gauge m "g\"q") 3;
  M.observe (M.histogram m "h") 128;
  match parse_json (J.to_string (M.to_json m)) with
  | J.Obj _ as j ->
      (match field "counters" j with
      | Some c -> Alcotest.(check int) "counter round-trips" 1 (num_exn "a.b" c)
      | None -> Alcotest.fail "no counters object")
  | _ -> Alcotest.fail "metrics JSON is not an object"

(* --- Veil-Prof: cycle attribution --- *)

let test_profiler_empty () =
  let p = P.create () in
  P.set_enabled p true;
  Alcotest.(check int) "no attribution" 0 (P.total_self p);
  Alcotest.(check bool) "empty ledger" true (P.ledger p = []);
  Alcotest.(check bool) "empty paths" true (P.paths p = []);
  Alcotest.(check int) "no open frames" 0 (P.open_frames p ~vcpu:0)

let test_profiler_self_total () =
  let p = P.create () in
  P.set_enabled p true;
  (* a spans [1000, 2000], b nests at [1200, 1700]: both get 500 self *)
  P.push p ~vcpu:0 ~vmpl:0 ~ts:1000 "a";
  P.push p ~vcpu:0 ~vmpl:0 ~ts:1200 "b";
  P.pop p ~vcpu:0 ~ts:1700;
  P.pop p ~vcpu:0 ~ts:2000;
  Alcotest.(check bool) "self = total - child time"
    true
    (P.ledger p = [ ((0, "a"), (500, 1)); ((0, "b"), (500, 1)) ]);
  Alcotest.(check bool) "paths carry the ancestry"
    true
    (P.paths p = [ ("vmpl0;a", 500); ("vmpl0;a;b", 500) ]);
  Alcotest.(check int) "total self covers the outer span" 1000 (P.total_self p)

let test_profiler_leaf_and_cross_vmpl () =
  let p = P.create () in
  P.set_enabled p true;
  P.push p ~vcpu:0 ~vmpl:0 ~ts:0 "syscall";
  (* fixed-cost leg attributed to another vmpl under the same stack *)
  P.leaf p ~vcpu:0 ~vmpl:1 ~dur:300 "vmgexit";
  P.pop p ~vcpu:0 ~ts:1000;
  Alcotest.(check int) "leaf credited" 300 (P.bucket_self p "vmgexit");
  Alcotest.(check int) "enclosing frame loses the leaf time" 700 (P.bucket_self p "syscall");
  Alcotest.(check bool) "leaf rooted at its own vmpl" true
    (List.mem_assoc "vmpl1;syscall;vmgexit" (P.paths p))

let test_profiler_unclosed_frame () =
  let p = P.create () in
  P.set_enabled p true;
  P.push p ~vcpu:0 ~vmpl:0 ~ts:10 "open_frame";
  Alcotest.(check int) "work-in-progress visible" 1 (P.open_frames p ~vcpu:0);
  Alcotest.(check bool) "not yet in the ledger" true (P.ledger p = []);
  P.pop p ~vcpu:0 ~ts:60;
  Alcotest.(check bool) "credited once closed" true
    (P.ledger p = [ ((0, "open_frame"), (50, 1)) ]);
  (* a stray pop with nothing open must be tolerated *)
  P.pop p ~vcpu:0 ~ts:70;
  Alcotest.(check int) "stray pop tolerated" 50 (P.total_self p)

let test_profiler_disabled_noop () =
  let p = P.create () in
  P.push p ~vcpu:0 ~vmpl:0 ~ts:0 "dead";
  P.leaf p ~vcpu:0 ~vmpl:0 ~dur:100 "dead_leaf";
  P.pop p ~vcpu:0 ~ts:10;
  P.set_id p ~vcpu:0 5;
  Alcotest.(check bool) "disabled by default" false (P.enabled p);
  Alcotest.(check int) "nothing recorded" 0 (P.total_self p);
  Alcotest.(check int) "no causal id" 0 (P.id p ~vcpu:0);
  (* the disabled mutators must also allocate nothing (the bench
     alloc-check enforces the same on the full syscall path) *)
  let n = 10_000 in
  let before = Gc.minor_words () in
  for i = 1 to n do
    P.push p ~vcpu:0 ~vmpl:0 ~ts:i "dead";
    P.leaf p ~vcpu:0 ~vmpl:0 ~dur:1 "dead_leaf";
    ignore (P.id p ~vcpu:0);
    P.pop p ~vcpu:0 ~ts:(i + 1)
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check (float 0.0)) "disabled profiler allocates 0.0 words/op" 0.0 words

let test_profiler_causal_ids () =
  let p = P.create () in
  P.set_enabled p true;
  let a = P.mint p and b = P.mint p in
  Alcotest.(check bool) "ids are fresh and nonzero" true (a = 1 && b = 2);
  P.set_id p ~vcpu:2 a;
  Alcotest.(check int) "id rides its vcpu" a (P.id p ~vcpu:2);
  Alcotest.(check int) "other vcpus unaffected" 0 (P.id p ~vcpu:0);
  P.set_id p ~vcpu:2 0;
  Alcotest.(check int) "cleared" 0 (P.id p ~vcpu:2);
  P.reset p;
  Alcotest.(check int) "reset restarts the generator" 1 (P.mint p)

let test_profiler_depth_overflow () =
  let p = P.create ~max_depth:4 () in
  P.set_enabled p true;
  for i = 0 to 9 do
    P.push p ~vcpu:0 ~vmpl:0 ~ts:(i * 10) (Printf.sprintf "f%d" i)
  done;
  for i = 9 downto 0 do
    P.pop p ~vcpu:0 ~ts:(200 - i)
  done;
  Alcotest.(check int) "all pops matched" 0 (P.open_frames p ~vcpu:0);
  (* only the frames that fit the stack were credited *)
  Alcotest.(check int) "dropped frames are not credited" 4
    (List.length (P.ledger p))

let test_folded_roundtrip () =
  let p = P.create () in
  P.set_enabled p true;
  P.push p ~vcpu:0 ~vmpl:0 ~ts:0 "syscall";
  P.push p ~vcpu:0 ~vmpl:1 ~ts:100 "os_call";
  P.leaf p ~vcpu:0 ~vmpl:1 ~dur:550 "vmgexit";
  P.pop p ~vcpu:0 ~ts:800;
  P.pop p ~vcpu:0 ~ts:1000;
  (* a second vcpu contributes to the same buckets *)
  P.push p ~vcpu:1 ~vmpl:1 ~ts:0 "os_call";
  P.pop p ~vcpu:1 ~ts:40;
  let folded = F.render (P.paths p) in
  Alcotest.(check bool) "folded text is rooted" true
    (String.length folded > 5 && String.sub folded 0 5 = "veil;");
  let totals = F.leaf_totals (F.parse folded) in
  let ledger_totals = List.map (fun (k, (self, _)) -> (k, self)) (P.ledger p) in
  Alcotest.(check bool) "folded leaf totals equal the ledger" true (totals = ledger_totals)

(* --- Veil-Scope: wait kinds, drop accounting, flow export --- *)

let test_wait_kind_names () =
  List.iter
    (fun (r, kind, reason) ->
      Alcotest.(check string) kind kind (Tr.kind_name (Tr.Wait r));
      Alcotest.(check string) reason reason (Tr.wait_reason_name r))
    [
      (Tr.Runqueue, "wait.runqueue", "runqueue");
      (Tr.Monitor_serial, "wait.monitor_serial", "monitor_serial");
      (Tr.Shootdown_ack, "wait.shootdown_ack", "shootdown_ack");
      (Tr.Blocked_poll, "wait.blocked_poll", "blocked_poll");
      (Tr.Relay, "wait.relay", "relay");
    ]

let test_dropped_counter () =
  let t = Tr.create ~capacity:16 () in
  Tr.set_enabled t true;
  for i = 0 to 39 do
    Tr.emit t ~vcpu:0 ~vmpl:0 ~ts:i Tr.Npf
  done;
  Alcotest.(check int) "dropped = emitted - capacity" 24 (Tr.dropped t);
  Tr.clear t;
  Alcotest.(check int) "clear resets the drop count" 0 (Tr.dropped t)

let test_chrome_truncation_warning () =
  let t = Tr.create ~capacity:16 () in
  Tr.set_enabled t true;
  for i = 0 to 39 do
    Tr.emit t ~vcpu:0 ~vmpl:0 ~ts:i Tr.Npf
  done;
  let json = parse_json (Obs.Chrome_trace.to_json t) in
  let evs = match field "traceEvents" json with Some (J.List l) -> l | _ -> failwith "no traceEvents" in
  match List.find_opt (fun e -> str_exn "name" e = "trace_truncated") evs with
  | Some e ->
      Alcotest.(check string) "global instant" "i" (str_exn "ph" e);
      Alcotest.(check string) "veil category" "veil" (str_exn "cat" e);
      (* pinned at the surviving window's start (oldest kept event) *)
      Alcotest.(check int) "pinned at window start" 24 (num_exn "ts" e);
      (match field "args" e with
      | Some a -> Alcotest.(check int) "drop count in args" 24 (num_exn "dropped" a)
      | None -> Alcotest.fail "truncation warning has no args")
  | None -> Alcotest.fail "no trace_truncated event in a wrapped export"

(* A causal id that hops (vmpl, vcpu) lanes becomes an s -> t* -> f
   flow chain; an id confined to one lane draws no arrows. *)
let test_chrome_flow_events () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  Tr.emit t ~vcpu:0 ~vmpl:3 ~ts:100 ~id:5 Tr.Syscall;
  Tr.emit t ~vcpu:1 ~vmpl:0 ~ts:150 ~id:5 Tr.Vmgexit;
  Tr.emit t ~vcpu:0 ~vmpl:3 ~ts:200 ~id:5 Tr.Vmenter;
  (* single-lane id: two events, both on (vmpl 2, vcpu 0) *)
  Tr.emit t ~vcpu:0 ~vmpl:2 ~ts:300 ~id:9 Tr.Vmgexit;
  Tr.emit t ~vcpu:0 ~vmpl:2 ~ts:310 ~id:9 Tr.Vmenter;
  let json = parse_json (Obs.Chrome_trace.to_json t) in
  let evs = match field "traceEvents" json with Some (J.List l) -> l | _ -> failwith "no traceEvents" in
  let cat e = match field "cat" e with Some (J.Str s) -> s | _ -> "" in
  let flows = List.filter (fun e -> cat e = "veil.flow") evs in
  Alcotest.(check (list string)) "s at the start, t on the hop, f at the end"
    [ "s"; "t"; "f" ]
    (List.map (fun e -> str_exn "ph" e) flows);
  List.iter
    (fun e ->
      Alcotest.(check string) "flow name" "req" (str_exn "name" e);
      Alcotest.(check int) "only the lane-hopping id flows" 5 (num_exn "id" e))
    flows;
  (match flows with
  | [ s; tpt; f ] ->
      Alcotest.(check (pair int int)) "s on the syscall lane" (3, 0)
        (num_exn "pid" s, num_exn "tid" s);
      Alcotest.(check (pair int int)) "t on the monitor lane" (0, 1)
        (num_exn "pid" tpt, num_exn "tid" tpt);
      Alcotest.(check int) "f back at the origin" 3 (num_exn "pid" f);
      Alcotest.(check bool) "f carries the enclosing-slice binding"
        true
        (match field "bp" f with Some (J.Str "e") -> true | _ -> false)
  | _ -> Alcotest.fail "expected exactly three flow points")

let test_metrics_json_tail_percentiles () =
  let m = M.create () in
  let h = M.histogram m "lat" in
  for _ = 1 to 10 do M.observe h 1000 done;
  match field "histograms" (parse_json (J.to_string (M.to_json m))) with
  | Some hs -> (
      match field "lat" hs with
      | Some hj ->
          Alcotest.(check int) "p99 in JSON" 1000 (num_exn "p99" hj);
          Alcotest.(check int) "p999 in JSON" 1000 (num_exn "p999" hj)
      | None -> Alcotest.fail "histogram lat missing from JSON")
  | None -> Alcotest.fail "no histograms object"

(* --- Veil-Scope: critical-path reconstruction --- *)

module Cp = Obs.Critpath

(* One synthetic request: an os_call Begin/End envelope [100, 200] on
   vmpl 3, a Monitor_serial wait [110, 130] inside it, and a domain
   switch [130, 170] at vmpl 0 — innermost-wins flattening must slice
   the envelope around both. *)
let test_critpath_flattening () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  Tr.span_begin t ~bucket:"monitor" ~id:5 ~vcpu:0 ~vmpl:3 ~ts:100 "os_call";
  Tr.complete t ~bucket:"monitor" ~id:5 ~vcpu:0 ~vmpl:3 ~ts:110 ~dur:20 (Tr.Wait Tr.Monitor_serial);
  Tr.complete t ~bucket:"switch" ~id:5 ~vcpu:0 ~vmpl:0 ~ts:130 ~dur:40 Tr.Domain_switch;
  Tr.span_end t ~vcpu:0 ~vmpl:3 ~ts:200 "os_call";
  (* an id-less event must not start a request of its own *)
  Tr.emit t ~vcpu:0 ~vmpl:0 ~ts:50 Tr.Npf;
  match Cp.requests (Tr.events t) with
  | [ rq ] ->
      Alcotest.(check int) "id" 5 rq.Cp.rq_id;
      Alcotest.(check int) "start" 100 rq.Cp.rq_start;
      Alcotest.(check int) "finish" 200 rq.Cp.rq_finish;
      Alcotest.(check int) "extent" 100 (Cp.extent rq);
      (* [100,110) envelope + [170,200) envelope at vmpl 3; [130,170)
         switch at vmpl 0; the wait slice [110,130) is not work *)
      Alcotest.(check (list (pair int int))) "work by vmpl" [ (0, 40); (3, 40) ] rq.Cp.rq_work;
      Alcotest.(check int) "total work" 80 (Cp.total_work rq);
      Alcotest.(check int) "total wait" 20 (Cp.total_wait rq);
      (match rq.Cp.rq_wait with
      | [ ((vmpl, reason), c) ] ->
          Alcotest.(check int) "wait at the caller's vmpl" 3 vmpl;
          Alcotest.(check string) "wait reason" "monitor_serial" (Tr.wait_reason_name reason);
          Alcotest.(check int) "wait cycles" 20 c
      | _ -> Alcotest.fail "expected exactly one wait entry");
      Alcotest.(check int) "work + wait = extent" (Cp.extent rq)
        (Cp.total_work rq + Cp.total_wait rq)
  | rqs -> Alcotest.failf "expected one request, got %d" (List.length rqs)

(* Uncovered extent between a request's spans is labelled as a gap
   (vmpl -1) rather than silently attributed to either side. *)
let test_critpath_gap_labelled () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  Tr.complete t ~id:6 ~vcpu:0 ~vmpl:3 ~ts:300 ~dur:10 Tr.Syscall;
  Tr.complete t ~id:6 ~vcpu:1 ~vmpl:0 ~ts:350 ~dur:10 Tr.Vmgexit;
  (* an id whose only evidence is zero-length yields no request *)
  Tr.complete t ~id:7 ~vcpu:0 ~vmpl:0 ~ts:400 ~dur:0 Tr.Vmgexit;
  match Cp.requests (Tr.events t) with
  | [ rq ] ->
      Alcotest.(check int) "extent covers the gap" 60 (Cp.extent rq);
      Alcotest.(check (list (pair int int))) "gap attributed to vmpl -1"
        [ (-1, 40); (0, 10); (3, 10) ]
        rq.Cp.rq_work;
      let gap = List.find (fun s -> s.Cp.sg_vmpl = -1) rq.Cp.rq_segs in
      Alcotest.(check string) "gap segment named" "gap" gap.Cp.sg_name;
      Alcotest.(check int) "gap extent" 40 gap.Cp.sg_dur
  | rqs -> Alcotest.failf "expected one request, got %d" (List.length rqs)

(* summarize folds per-request decompositions; wait_by_reason projects
   the (vmpl, reason) keys down to reasons. *)
let test_critpath_summary () =
  let t = Tr.create ~capacity:64 () in
  Tr.set_enabled t true;
  Tr.complete t ~id:1 ~vcpu:0 ~vmpl:3 ~ts:100 ~dur:50 Tr.Syscall;
  Tr.complete t ~id:1 ~vcpu:0 ~vmpl:3 ~ts:110 ~dur:10 (Tr.Wait Tr.Runqueue);
  Tr.complete t ~id:2 ~vcpu:1 ~vmpl:3 ~ts:200 ~dur:30 Tr.Syscall;
  Tr.complete t ~id:2 ~vcpu:1 ~vmpl:3 ~ts:205 ~dur:5 (Tr.Wait Tr.Runqueue);
  let rqs = Cp.requests (Tr.events t) in
  Alcotest.(check int) "two requests" 2 (List.length rqs);
  let sm = Cp.summarize rqs in
  Alcotest.(check int) "requests" 2 sm.Cp.sm_requests;
  Alcotest.(check int) "cycles = summed extents" 80 sm.Cp.sm_cycles;
  Alcotest.(check (list (pair int int))) "work folded" [ (3, 65) ] sm.Cp.sm_work;
  (match Cp.wait_by_reason sm with
  | [ (reason, c) ] ->
      Alcotest.(check string) "reason folded" "runqueue" (Tr.wait_reason_name reason);
      Alcotest.(check int) "wait cycles folded" 15 c
  | _ -> Alcotest.fail "expected one folded wait reason");
  (* renderers stay total on synthetic input *)
  Alcotest.(check bool) "render is non-empty" true
    (String.length (Cp.render (List.hd rqs)) > 0);
  Alcotest.(check bool) "render_summary is non-empty" true
    (String.length (Cp.render_summary sm) > 0)

let suite =
  [
    Alcotest.test_case "ring wraparound keeps newest" `Quick test_ring_wraparound;
    Alcotest.test_case "ring wraparound across open spans" `Quick test_ring_wraparound_spans;
    Alcotest.test_case "disabled tracer is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "clear" `Quick test_clear;
    Alcotest.test_case "ring allocated on first enable" `Quick test_lazy_ring;
    Alcotest.test_case "span nesting well-formed" `Quick test_span_nesting;
    Alcotest.test_case "span misnesting detected" `Quick test_span_misnesting;
    Alcotest.test_case "orphan/open spans tolerated" `Quick test_span_open_and_orphan_tolerated;
    Alcotest.test_case "histogram percentiles exact" `Quick test_histogram_percentiles;
    Alcotest.test_case "histogram p100 and mean" `Quick test_histogram_p100_true_max;
    Alcotest.test_case "counter interning" `Quick test_counter_intern;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "merge of one registry is detached" `Quick test_merge_detached;
    Alcotest.test_case "chrome export valid + monotonic" `Quick test_chrome_export;
    Alcotest.test_case "metrics JSON parses" `Quick test_metrics_json_parses;
    Alcotest.test_case "profiler empty" `Quick test_profiler_empty;
    Alcotest.test_case "profiler self/total accounting" `Quick test_profiler_self_total;
    Alcotest.test_case "profiler leaves + cross-vmpl" `Quick test_profiler_leaf_and_cross_vmpl;
    Alcotest.test_case "profiler unclosed frames" `Quick test_profiler_unclosed_frame;
    Alcotest.test_case "profiler disabled is free" `Quick test_profiler_disabled_noop;
    Alcotest.test_case "profiler causal ids" `Quick test_profiler_causal_ids;
    Alcotest.test_case "profiler depth overflow" `Quick test_profiler_depth_overflow;
    Alcotest.test_case "folded stacks round-trip" `Quick test_folded_roundtrip;
    Alcotest.test_case "wait kind names" `Quick test_wait_kind_names;
    Alcotest.test_case "dropped counter" `Quick test_dropped_counter;
    Alcotest.test_case "chrome truncation warning" `Quick test_chrome_truncation_warning;
    Alcotest.test_case "chrome flow events" `Quick test_chrome_flow_events;
    Alcotest.test_case "metrics JSON tail percentiles" `Quick test_metrics_json_tail_percentiles;
    Alcotest.test_case "critical-path flattening" `Quick test_critpath_flattening;
    Alcotest.test_case "critical-path gap labelling" `Quick test_critpath_gap_labelled;
    Alcotest.test_case "critical-path summary" `Quick test_critpath_summary;
  ]
