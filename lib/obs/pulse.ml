(* Veil-Pulse: continuous time-series telemetry with attested export.

   A cycle-epoch sampler driven by the simulated clock: [tick] is
   called from the platform's world-exit paths (right next to the
   chaos watchdog), and whenever at least [interval] cycles have
   elapsed since the current epoch opened, the sampler captures a
   delta-encoded snapshot of the whole metrics registry into a bounded
   interval ring.  Epochs are therefore *at least* [interval] cycles
   long and close on world-exit boundaries — the sampler never runs
   between exits, so a captured interval always covers whole guest
   execution legs.

   Tamper evidence: each captured interval is serialized to a
   canonical line, hashed, and folded into a running SHA-256 chain
   (the same [H(prev || line)] shape as VeilS-LOG); an anchor line
   carrying the interval digest and chain head is queued for
   appending to the VeilS-LOG region through the ordinary (ringable)
   [R_log_append] path.  [verify_export] recomputes digests and the
   chain over exported pulse data and pinpoints the exact interval a
   hypervisor dropped, reordered, or edited. *)

let zero32 = Bytes.make 32 '\000'

let extend_chain prev line =
  let ctx = Veil_crypto.Sha256.init () in
  Veil_crypto.Sha256.update ctx prev;
  Veil_crypto.Sha256.update_string ctx line;
  Veil_crypto.Sha256.finalize ctx

type interval = {
  mutable iv_index : int;  (** global interval number, 0-based *)
  mutable iv_t0 : int;  (** cycle at epoch open *)
  mutable iv_t1 : int;  (** cycle at capture *)
  mutable iv_data : int array;  (** delta slots, layout per Metrics snapshot *)
  mutable iv_slots : int;
  mutable iv_digest : bytes;
}

type objective = {
  o_name : string;
  o_metric : string;
  o_good_below : int;
  o_slo_ppm : int;  (** SLO target in parts-per-million good events *)
  o_window : int;  (** burn window, in intervals *)
  o_kind : Trace.kind;  (** preallocated crossing-event kind *)
  mutable o_midx : int;  (** snapshot metric index; -1 until resolved *)
  mutable o_total : int;
  mutable o_bad : int;
  mutable o_burn : float;
  mutable o_crossed : bool;
  mutable o_crossings : int;
}

type t = {
  metrics : Metrics.t;
  mutable tracer : Trace.t option;
  mutable armed : bool;
  mutable interval : int;
  mutable epoch_start : int;
  mutable now : int;  (** max cycle seen across VCPUs *)
  ring : interval array;
  ring_cap : int;
  mutable captured : int;  (** intervals captured since arm *)
  mutable prev : Metrics.snapshot;
  mutable cur : Metrics.snapshot;
  mutable chain : bytes;
  mutable pending : string list;  (** anchor lines, oldest last *)
  mutable npending : int;
  mutable anchors : int;  (** anchor lines handed out via [pop_anchor] *)
  mutable objectives : objective list;  (** registration order reversed *)
}

let create ?(ring_cap = 64) ~metrics () =
  let ring_cap = max 4 ring_cap in
  let ring =
    Array.init ring_cap (fun _ ->
        { iv_index = -1; iv_t0 = 0; iv_t1 = 0; iv_data = [||]; iv_slots = 0; iv_digest = zero32 })
  in
  {
    metrics;
    tracer = None;
    armed = false;
    interval = max_int;
    epoch_start = 0;
    now = 0;
    ring;
    ring_cap;
    captured = 0;
    prev = Metrics.snapshot_create metrics;
    cur = Metrics.snapshot_create metrics;
    chain = zero32;
    pending = [];
    npending = 0;
    anchors = 0;
    objectives = [];
  }

let set_tracer t tr = t.tracer <- tr
let armed t = t.armed
let interval_cycles t = t.interval

let reset_series t =
  t.captured <- 0;
  t.chain <- zero32;
  t.pending <- [];
  t.npending <- 0;
  t.anchors <- 0;
  Array.iter (fun iv -> iv.iv_index <- -1) t.ring;
  List.iter
    (fun o ->
      o.o_total <- 0;
      o.o_bad <- 0;
      o.o_burn <- 0.0;
      o.o_crossed <- false;
      o.o_crossings <- 0)
    t.objectives

let arm t ~interval ~now =
  if interval <= 0 then invalid_arg "Pulse.arm: interval must be positive";
  reset_series t;
  t.interval <- interval;
  t.epoch_start <- now;
  t.now <- now;
  (* Baseline: the first interval deltas against the state at arm
     time, not against machine boot. *)
  Metrics.snapshot_take t.metrics t.prev;
  t.armed <- true

let disarm t = t.armed <- false

(* -------------------------------------------------------------- *)
(* Capture                                                        *)

let sparse_render buf data slots =
  let first = ref true in
  for j = 0 to slots - 1 do
    if data.(j) <> 0 then begin
      if not !first then Buffer.add_char buf ',';
      first := false;
      Buffer.add_string buf (string_of_int j);
      Buffer.add_char buf ':';
      Buffer.add_string buf (string_of_int data.(j))
    end
  done

let interval_line iv =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "i=%d t0=%d t1=%d s=%d d=" iv.iv_index iv.iv_t0 iv.iv_t1 iv.iv_slots);
  sparse_render buf iv.iv_data iv.iv_slots;
  Buffer.contents buf

let resolve_objective t o =
  if o.o_midx < 0 then begin
    let n = Metrics.snap_metrics t.cur in
    let i = ref 0 in
    while o.o_midx < 0 && !i < n do
      if String.equal (Metrics.snap_name t.cur !i) o.o_metric then o.o_midx <- !i;
      incr i
    done
  end

let retained t = min t.captured t.ring_cap
let first_retained t = t.captured - retained t

let slot_of t i =
  if i < first_retained t || i >= t.captured then None
  else
    let iv = t.ring.(i mod t.ring_cap) in
    if iv.iv_index = i then Some iv else None

(* Count good/bad events of objective [o] over its trailing window,
   straight off the ring's bucket deltas — no allocation. *)
let eval_objective t o =
  resolve_objective t o;
  if o.o_midx >= 0 && Metrics.snap_kind t.cur o.o_midx = Metrics.K_histogram then begin
    let off = Metrics.snap_offset t.cur o.o_midx in
    let lo = max (first_retained t) (t.captured - o.o_window) in
    let total = ref 0 and good = ref 0 in
    for i = lo to t.captured - 1 do
      match slot_of t i with
      | None -> ()
      | Some iv ->
          if off + Metrics.nbuckets <= iv.iv_slots then
            for b = 0 to Metrics.nbuckets - 1 do
              let c = iv.iv_data.(off + b) in
              if c > 0 then begin
                total := !total + c;
                (* A bucket is good only when its whole span is at or
                   below the target — partial buckets count bad
                   (conservative, matches the registry's upper-bound
                   percentile convention). *)
                if Metrics.bucket_hi b <= o.o_good_below then good := !good + c
              end
            done
    done;
    let bad = !total - !good in
    o.o_total <- !total;
    o.o_bad <- bad;
    let bad_ppm_budget = (1_000_000 - o.o_slo_ppm) * !total in
    o.o_burn <-
      (if bad_ppm_budget = 0 then if bad > 0 then infinity else 0.0
       else float_of_int (bad * 1_000_000) /. float_of_int bad_ppm_budget);
    (* Strictly over budget: burning exactly at 1.0 (bad == budget) is
       on-target, not a crossing.  Integer comparison keeps the edge
       exact. *)
    let over = bad * 1_000_000 > bad_ppm_budget in
    if over && not o.o_crossed then begin
      o.o_crossings <- o.o_crossings + 1;
      match t.tracer with
      | Some tr when Trace.enabled tr ->
          Trace.emit tr ~phase:Trace.Instant ~bucket:"pulse" ~arg:(t.captured - 1) ~vcpu:0
            ~vmpl:(-1) ~ts:t.now o.o_kind
      | _ -> ()
    end;
    o.o_crossed <- over
  end

let capture t =
  Metrics.snapshot_take t.metrics t.cur;
  let iv = t.ring.(t.captured mod t.ring_cap) in
  let slots = Metrics.snap_slots t.cur in
  if Array.length iv.iv_data < slots then iv.iv_data <- Array.make slots 0;
  Metrics.diff ~prev:t.prev ~cur:t.cur ~into:iv.iv_data;
  iv.iv_index <- t.captured;
  iv.iv_t0 <- t.epoch_start;
  iv.iv_t1 <- t.now;
  iv.iv_slots <- slots;
  let line = interval_line iv in
  iv.iv_digest <- Veil_crypto.Sha256.digest_string line;
  t.chain <- extend_chain t.chain line;
  let anchor =
    Printf.sprintf "pulse i=%d t1=%d digest=%s chain=%s" iv.iv_index iv.iv_t1
      (Veil_crypto.Sha256.hex_of_digest iv.iv_digest)
      (Veil_crypto.Sha256.hex_of_digest t.chain)
  in
  t.pending <- anchor :: t.pending;
  t.npending <- t.npending + 1;
  (* Swap snapshots: the capture we just took becomes the next
     interval's baseline.  Pointer swap — no copying. *)
  let p = t.prev in
  t.prev <- t.cur;
  t.cur <- p;
  t.captured <- t.captured + 1;
  t.epoch_start <- t.now;
  List.iter (eval_objective t) t.objectives

let tick t ~now =
  if t.armed then begin
    if now > t.now then t.now <- now;
    if t.now - t.epoch_start >= t.interval then begin
      capture t;
      true
    end
    else false
  end
  else false

let flush t ~now =
  if t.armed then begin
    if now > t.now then t.now <- now;
    if t.now > t.epoch_start then capture t
  end

(* -------------------------------------------------------------- *)
(* Readout                                                        *)

let captured t = t.captured
let overwritten t = t.captured - retained t
let chain_digest t = Bytes.copy t.chain

let bounds t i = match slot_of t i with Some iv -> Some (iv.iv_t0, iv.iv_t1) | None -> None

let metric_index t name =
  let n = Metrics.snap_metrics t.prev in
  let found = ref (-1) in
  for i = 0 to n - 1 do
    if !found < 0 && String.equal (Metrics.snap_name t.prev i) name then found := i
  done;
  !found

let counter_delta t ~metric i =
  let m = metric_index t metric in
  if m < 0 then None
  else
    match slot_of t i with
    | Some iv when Metrics.snap_offset t.prev m < iv.iv_slots ->
        Some iv.iv_data.(Metrics.snap_offset t.prev m)
    | _ -> None

let gauge_at = counter_delta (* gauge slots carry the value at capture *)

let hist_window t ~metric ~window ~upto =
  let m = metric_index t metric in
  if m < 0 || Metrics.snap_kind t.prev m <> Metrics.K_histogram then None
  else begin
    let off = Metrics.snap_offset t.prev m in
    let buckets = Array.make Metrics.nbuckets 0 in
    let n = ref 0 and sum = ref 0 in
    let lo = max (first_retained t) (upto - window + 1) in
    let any = ref false in
    for i = lo to min upto (t.captured - 1) do
      match slot_of t i with
      | Some iv when off + Metrics.hist_slots <= iv.iv_slots ->
          any := true;
          for b = 0 to Metrics.nbuckets - 1 do
            buckets.(b) <- buckets.(b) + iv.iv_data.(off + b)
          done;
          n := !n + iv.iv_data.(off + Metrics.nbuckets);
          sum := !sum + iv.iv_data.(off + Metrics.nbuckets + 1)
      | _ -> ()
    done;
    if !any then Some (buckets, !n, !sum) else None
  end

let wpercentile ~buckets p =
  let n = Array.fold_left ( + ) 0 buckets in
  if n = 0 then 0
  else begin
    let hi = ref 0 in
    for b = 0 to Array.length buckets - 1 do
      if buckets.(b) > 0 then hi := b
    done;
    if p >= 100.0 then Metrics.bucket_hi !hi
    else begin
      let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
      let rank = min rank n in
      let cum = ref 0 and result = ref 0 and found = ref false in
      for b = 0 to Array.length buckets - 1 do
        if not !found then begin
          cum := !cum + buckets.(b);
          if !cum >= rank then begin
            found := true;
            result := min (Metrics.bucket_hi !hi) (Metrics.bucket_hi b)
          end
        end
      done;
      !result
    end
  end

(* -------------------------------------------------------------- *)
(* SLOs                                                           *)

let objective t ~name ~metric ~good_below ~slo ~window =
  if slo <= 0.0 || slo >= 1.0 then invalid_arg "Pulse.objective: slo must be in (0, 1)";
  if window <= 0 then invalid_arg "Pulse.objective: window must be positive";
  let o =
    {
      o_name = name;
      o_metric = metric;
      o_good_below = good_below;
      o_slo_ppm = int_of_float ((slo *. 1_000_000.0) +. 0.5);
      o_window = window;
      o_kind = Trace.Span ("slo." ^ name);
      o_midx = -1;
      o_total = 0;
      o_bad = 0;
      o_burn = 0.0;
      o_crossed = false;
      o_crossings = 0;
    }
  in
  t.objectives <- o :: t.objectives

type burn_report = {
  br_name : string;
  br_metric : string;
  br_good_below : int;
  br_slo : float;
  br_window : int;
  br_total : int;
  br_bad : int;
  br_budget : float;
  br_burn : float;
  br_crossed : bool;
  br_crossings : int;
}

let burn_reports t =
  List.rev_map
    (fun o ->
      {
        br_name = o.o_name;
        br_metric = o.o_metric;
        br_good_below = o.o_good_below;
        br_slo = float_of_int o.o_slo_ppm /. 1_000_000.0;
        br_window = o.o_window;
        br_total = o.o_total;
        br_bad = o.o_bad;
        br_budget = float_of_int ((1_000_000 - o.o_slo_ppm) * o.o_total) /. 1_000_000.0;
        br_burn = o.o_burn;
        br_crossed = o.o_crossed;
        br_crossings = o.o_crossings;
      })
    t.objectives

(* -------------------------------------------------------------- *)
(* Anchors                                                        *)

let pending_anchors t = t.npending

let pop_anchor t =
  match List.rev t.pending with
  | [] -> None
  | oldest :: rest ->
      t.pending <- List.rev rest;
      t.npending <- t.npending - 1;
      t.anchors <- t.anchors + 1;
      Some oldest

let anchors_emitted t = t.anchors

(* -------------------------------------------------------------- *)
(* Attested export + verification                                 *)

let export t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "veil-pulse v1 first=%d count=%d chain=%s" (first_retained t) (retained t)
       (Veil_crypto.Sha256.hex_of_digest t.chain));
  for i = first_retained t to t.captured - 1 do
    match slot_of t i with
    | Some iv ->
        Buffer.add_char buf '\n';
        Buffer.add_string buf (interval_line iv)
    | None -> ()
  done;
  Buffer.contents buf

let parse_index line =
  (* "i=<n> ..." → n, or -1 on malformed *)
  if String.length line > 2 && line.[0] = 'i' && line.[1] = '=' then
    let stop = try String.index line ' ' with Not_found -> String.length line in
    try int_of_string (String.sub line 2 (stop - 2)) with _ -> -1
  else -1

let verify_export t exported =
  match String.split_on_char '\n' exported with
  | [] -> Error (first_retained t, "empty export")
  | _header :: lines ->
      let expected = ref (first_retained t) in
      let err = ref None in
      List.iter
        (fun line ->
          if !err = None then begin
            let idx = parse_index line in
            if idx < 0 then err := Some (!expected, "malformed interval line")
            else if idx < !expected then err := Some (idx, "reordered or replayed interval")
            else if idx > !expected then err := Some (!expected, "dropped interval")
            else begin
              (match slot_of t idx with
              | None -> err := Some (idx, "interval not retained")
              | Some iv ->
                  let d = Veil_crypto.Sha256.digest_string line in
                  if not (Bytes.equal d iv.iv_digest) then err := Some (idx, "edited interval"));
              expected := !expected + 1
            end
          end)
        lines;
      if !err = None && !expected < t.captured then err := Some (!expected, "dropped interval");
      (* Recompute the chain over the verified window and check it
         matches the trusted head when the whole series is retained
         (no ring wraparound). *)
      if !err = None && first_retained t = 0 then begin
        let chain = ref zero32 in
        List.iter (fun line -> chain := extend_chain !chain line) lines;
        if not (Bytes.equal !chain t.chain) then err := Some (0, "chain head mismatch")
      end;
      (match !err with None -> Ok (retained t) | Some e -> Error e)
