(* Veil-Bench measuring process.  run.py starts it in two modes and
   reads the one JSON line it prints:

     veilbench.exe setup --workload W --seed N [--tiny]
       a fresh process makes the workload's cold one-op call;
     veilbench.exe run --workload W --seed N --seconds S --trace 0|1 [--tiny]
       warm-up pass, then passes for S seconds; with --trace 1 also the
       per-layer unit costs and modeled counts. *)

let json_metric b (name, v, unit, note) =
  if not (Float.is_finite v) then failwith (Printf.sprintf "veilbench: %s is not finite" name);
  Printf.bprintf b "[\"%s\",%.17g,\"%s\",%S]" name v unit note

let print_result ~attempted ~failed ~correct metrics =
  let b = Buffer.create 65536 in
  Printf.bprintf b "{\"attempted\":%d,\"failed\":%d,\"correct\":%b,\"metrics\":[" attempted failed
    correct;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      json_metric b m)
    metrics;
  Printf.bprintf b "],\"spans\":%s}\n" (Span.to_json ());
  print_string (Buffer.contents b)

let setup w size seed =
  Span.enabled := true;
  let (), group_ns = Span.timed "Group.default" (fun () -> ignore (Veil_crypto.Group.default ())) in
  let p, call_ns = Span.timed "one-op entry call" (fun () -> Wl.one_op size seed w) in
  print_result ~attempted:p.Wl.ops ~failed:p.Wl.failed ~correct:(p.Wl.failed = 0)
    [
      ("setup_s", float_of_int (group_ns + call_ns) /. 1e9, "s", "");
      ("crypto.group_init_s", float_of_int group_ns /. 1e9, "s", "");
    ]

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
        | _ -> go ()
        | exception End_of_file -> failwith "veilbench: no VmHWM in /proc/self/status"
      in
      go ())

type timed_pass = { p : Wl.pass; ns : int; traced : bool }

(* The per-pass throughput that nine passes in ten reach.  On a shared
   host, co-tenants' memory traffic slows this memory-heavy simulator
   in bursts lasting seconds, and how many fast moments a run catches
   varies.  Over ten 30 s runs per workload on a 2-vCPU KVM guest of a
   shared Xeon host, the whole-window rate spread 12-22% (IQR/median)
   and the median pass 17-31%, while the 10th percentile, the contended
   floor every run sees, spread 10-14%. *)
let ops_per_s passes =
  Span.percentile 10.0
    (Array.of_list
       (List.map (fun t -> float_of_int t.p.Wl.ops /. (float_of_int t.ns /. 1e9)) passes))

(* The timed phase: passes of the entry call until [seconds] have gone
   by.  A traced run alternates untraced and traced passes so that both
   rates see the same host noise. *)
let run w size seed seconds traced =
  Span.enabled := traced;
  let prepared = Span.with_span "prepare" (fun () -> Wl.prepare size seed w) in
  let warm = Wl.run_pass ~op:0 size seed prepared in
  let min_passes = if traced then 4 else 3 in
  let passes = ref [] in
  let gc0 = Gc.quick_stat () in
  let deadline = Span.now_ns () + (seconds * 1_000_000_000) in
  let i = ref 0 in
  while Span.now_ns () < deadline || !i < min_passes do
    incr i;
    let traced = traced && !i mod 2 = 0 in
    Span.enabled := traced;
    let p, ns = Span.timed ~op:!i "pass" (fun () -> Wl.run_pass ~op:!i size seed prepared) in
    (* a pass whose modeled output differs from the warm-up's failed *)
    let p = if p.Wl.fingerprint = warm.Wl.fingerprint then p else { p with Wl.failed = p.Wl.ops } in
    passes := { p; ns; traced } :: !passes
  done;
  let gc1 = Gc.quick_stat () in
  Span.enabled := traced;
  let passes = List.rev !passes in
  let attempted = List.fold_left (fun acc t -> acc + t.p.Wl.ops) 0 passes in
  let failed = List.fold_left (fun acc t -> acc + t.p.Wl.failed) 0 passes in
  let plain = List.filter (fun t -> not t.traced) passes in
  let metrics =
    if not traced then
      [
        ( "ops_per_s",
          ops_per_s plain,
          "1/s",
          Printf.sprintf "p10 of %d passes of the entry call" (List.length plain) );
        ("peak_rss_mb", peak_rss_mb (), "MB", "VmHWM of the timed process");
      ]
    else begin
      let per_op v = v /. float_of_int attempted in
      let d f = f gc1 -. f gc0 in
      let with_spans = List.filter (fun t -> t.traced) passes in
      let overhead = 100.0 *. ((ops_per_s plain /. ops_per_s with_spans) -. 1.0) in
      [
        ("gc.minor_words_per_op", per_op (d (fun s -> s.Gc.minor_words)), "words", "");
        ("gc.major_words_per_op", per_op (d (fun s -> s.Gc.major_words)), "words", "");
        ( "gc.major_collections_per_kop",
          1000.0 *. per_op (d (fun s -> float_of_int s.Gc.major_collections)),
          "count",
          "" );
        ( "bench.trace_overhead_pct",
          overhead,
          "%",
          Printf.sprintf "untraced vs traced ops_per_s, %d + %d alternating passes"
            (List.length plain) (List.length with_spans) );
      ]
      @ Span.with_span "unit costs" (fun () -> Probes.all size w seed)
      @ Span.with_span "fleet-http modeled" (fun () -> Wl.fleet_metrics size seed)
      @ Span.with_span "enclave-unqlite modeled" (fun () -> Wl.unqlite_metrics size seed)
      @ Span.with_span "explore-rmp modeled" (fun () -> Wl.explore_metrics size seed)
    end
  in
  print_result ~attempted ~failed ~correct:(warm.Wl.failed = 0 && failed = 0) metrics

let () =
  let usage () =
    prerr_endline
      "usage: veilbench.exe (setup|run) --workload W --seed N [--seconds S] [--trace 0|1] [--tiny]";
    exit 2
  in
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let rec opts acc = function
    | "--tiny" :: r -> opts (("tiny", "1") :: acc) r
    | k :: v :: r when String.starts_with ~prefix:"--" k ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) r
    | [] -> acc
    | _ -> usage ()
  in
  let o = opts [] rest in
  let get k = match List.assoc_opt k o with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n -> n | None -> usage () in
  let w = match Wl.of_name (get "workload") with Some w -> w | None -> usage () in
  let size = if List.mem_assoc "tiny" o then Wl.Tiny else Wl.Full in
  match mode with
  | "setup" -> setup w size (int "seed")
  | "run" -> run w size (int "seed") (int "seconds") (int "trace" = 1)
  | _ -> usage ()
