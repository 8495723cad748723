type counter = { mutable c : int }
type gauge = { mutable g : int }

(* Bucket 0 holds value 0; bucket i >= 1 holds [2^(i-1), 2^i - 1].  62
   buckets cover the whole non-negative OCaml int range. *)
let nbuckets = 63

type histogram = {
  buckets : int array;
  mutable n : int;
  mutable sum : int;
  mutable mn : int;
  mutable mx : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = {
  tbl : (string, metric) Hashtbl.t;
  (* Registration order, dense and append-only: snapshots address
     metrics by index, so indices must stay stable across [reset]. *)
  mutable order : (string * metric) array;
  mutable nordered : int;
  mutable refresh : unit -> unit;
}

let no_refresh () = ()

let create () =
  { tbl = Hashtbl.create 64; order = Array.make 16 ("", Counter { c = 0 }); nordered = 0;
    refresh = no_refresh }

let set_refresh t f = t.refresh <- f
let refresh t = t.refresh ()

let kind_label = function Counter _ -> "counter" | Gauge _ -> "gauge" | Histogram _ -> "histogram"

let order_push t name m =
  if t.nordered = Array.length t.order then begin
    let bigger = Array.make (2 * t.nordered) ("", m) in
    Array.blit t.order 0 bigger 0 t.nordered;
    t.order <- bigger
  end;
  t.order.(t.nordered) <- (name, m);
  t.nordered <- t.nordered + 1

let intern t name make match_ =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
      match match_ m with
      | Some h -> h
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a %s" name (kind_label m)))
  | None ->
      let m = make () in
      Hashtbl.replace t.tbl name m;
      order_push t name m;
      (match match_ m with Some h -> h | None -> assert false)

let counter t name =
  intern t name (fun () -> Counter { c = 0 }) (function Counter c -> Some c | _ -> None)

let gauge t name =
  intern t name (fun () -> Gauge { g = 0 }) (function Gauge g -> Some g | _ -> None)

let histogram t name =
  intern t name
    (fun () -> Histogram { buckets = Array.make nbuckets 0; n = 0; sum = 0; mn = 0; mx = 0 })
    (function Histogram h -> Some h | _ -> None)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let value c = c.c

let set g v = g.g <- v
let gauge_value g = g.g

let bucket_of v =
  if v <= 0 then 0
  else begin
    (* index = floor(log2 v) + 1 *)
    let i = ref 0 and v = ref v in
    while !v > 0 do
      v := !v lsr 1;
      i := !i + 1
    done;
    min !i (nbuckets - 1)
  end

(* Bucket [i] spans [2^(i-1), 2^i - 1]; bucket 0 holds only 0. *)
let bucket_hi i = if i = 0 then 0 else (1 lsl i) - 1

let observe h v =
  let v = max 0 v in
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1;
  if h.n = 0 then begin
    h.mn <- v;
    h.mx <- v
  end
  else begin
    if v < h.mn then h.mn <- v;
    if v > h.mx then h.mx <- v
  end;
  h.n <- h.n + 1;
  h.sum <- h.sum + v

let hist_count h = h.n
let hist_sum h = h.sum
let hist_min h = h.mn
let hist_max h = h.mx

let mean h = if h.n = 0 then 0.0 else float_of_int h.sum /. float_of_int h.n

let percentile h p =
  if h.n = 0 then 0
  else if p >= 100.0 then h.mx (* the true observed max, not a bucket lower bound *)
  else begin
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int h.n))) in
    let rank = min rank h.n in
    let cum = ref 0 and result = ref 0 and found = ref false in
    for i = 0 to nbuckets - 1 do
      if not !found then begin
        cum := !cum + h.buckets.(i);
        if !cum >= rank then begin
          found := true;
          (* Conservative (upper-bound) estimate: the rank-th sample is
             *at most* the bucket's upper edge, clamped to the observed
             max.  The lower bound under-reported by up to 2x — e.g. a
             histogram of identical 1000-cycle samples answered p50 =
             512 (see DESIGN.md §9b). *)
          result := min h.mx (bucket_hi i)
        end
      end
    done;
    !result
  end

let find t name = Hashtbl.find_opt t.tbl name

let names t =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) t.tbl [])

let reset t =
  Hashtbl.iter
    (fun _ -> function
      | Counter c -> c.c <- 0
      | Gauge g -> g.g <- 0
      | Histogram h ->
          Array.fill h.buckets 0 nbuckets 0;
          h.n <- 0;
          h.sum <- 0;
          h.mn <- 0;
          h.mx <- 0)
    t.tbl

(* ------------------------------------------------------------------ *)
(* Snapshots: a flattened int-array image of every registered metric,
   preallocated so the sampler's hot path performs only int stores and
   [Array.blit] — no interning, no boxing.  Slot layout per metric:
   counter → 1 slot, gauge → 1 slot, histogram → [nbuckets] bucket
   slots followed by n / sum / mn / mx ([hist_slots] total). *)

let hist_slots = nbuckets + 4

type skind = K_counter | K_gauge | K_histogram

type snapshot = {
  mutable sn : int;  (** metrics covered *)
  mutable skinds : skind array;
  mutable snames : string array;
  mutable soffs : int array;  (** slot offset per metric index *)
  mutable sdata : int array;
  mutable slen : int;  (** total slots used *)
}

let slots_of = function Counter _ | Gauge _ -> 1 | Histogram _ -> hist_slots
let skind_of = function Counter _ -> K_counter | Gauge _ -> K_gauge | Histogram _ -> K_histogram

let snap_layout t s =
  (* (Re)size the snapshot to the current registry.  Allocates only
     when the registry grew since the last layout. *)
  if s.sn <> t.nordered then begin
    let total = ref 0 in
    for i = 0 to t.nordered - 1 do
      total := !total + slots_of (snd t.order.(i))
    done;
    let kinds = Array.make (max 1 t.nordered) K_counter in
    let names = Array.make (max 1 t.nordered) "" in
    let offs = Array.make (max 1 t.nordered) 0 in
    let data = Array.make (max 1 !total) 0 in
    let off = ref 0 in
    for i = 0 to t.nordered - 1 do
      let name, m = t.order.(i) in
      kinds.(i) <- skind_of m;
      names.(i) <- name;
      offs.(i) <- !off;
      off := !off + slots_of m
    done;
    s.sn <- t.nordered;
    s.skinds <- kinds;
    s.snames <- names;
    s.soffs <- offs;
    s.sdata <- data;
    s.slen <- !total
  end

let snapshot_create t =
  let s =
    { sn = -1; skinds = [||]; snames = [||]; soffs = [||]; sdata = [||]; slen = 0 }
  in
  snap_layout t s;
  s

let snapshot_take t s =
  t.refresh ();
  snap_layout t s;
  let data = s.sdata in
  for i = 0 to s.sn - 1 do
    let off = s.soffs.(i) in
    match snd t.order.(i) with
    | Counter c -> data.(off) <- c.c
    | Gauge g -> data.(off) <- g.g
    | Histogram h ->
        Array.blit h.buckets 0 data off nbuckets;
        data.(off + nbuckets) <- h.n;
        data.(off + nbuckets + 1) <- h.sum;
        data.(off + nbuckets + 2) <- h.mn;
        data.(off + nbuckets + 3) <- h.mx
  done

let snap_metrics s = s.sn
let snap_slots s = s.slen
let snap_name s i = s.snames.(i)
let snap_kind s i = s.skinds.(i)
let snap_offset s i = s.soffs.(i)

let diff ~prev ~cur ~into =
  (* Per-interval deltas of [cur] against [prev], written into the
     caller-owned [into] (length >= [cur.slen]).  Counter and
     histogram bucket/n/sum slots delta with counter-reset semantics
     (cur < prev → delta = cur, Prometheus-style); gauge and histogram
     mn/mx slots carry the current value. *)
  if Array.length into < cur.slen then invalid_arg "Metrics.diff: into too small";
  let pdata = prev.sdata and cdata = cur.sdata in
  for i = 0 to cur.sn - 1 do
    let off = cur.soffs.(i) in
    let prev_at j = if i < prev.sn && j < prev.slen then pdata.(j) else 0 in
    let mono j =
      let c = cdata.(j) and p = prev_at j in
      into.(j) <- (if c < p then c else c - p)
    in
    match cur.skinds.(i) with
    | K_counter -> mono off
    | K_gauge -> into.(off) <- cdata.(off)
    | K_histogram ->
        for j = off to off + nbuckets + 1 do
          mono j
        done;
        into.(off + nbuckets + 2) <- cdata.(off + nbuckets + 2);
        into.(off + nbuckets + 3) <- cdata.(off + nbuckets + 3)
  done

(* Cross-instance aggregation (Veil-Fleet).  Every guest owns its own
   registry, so fleet-level percentiles need the guests' histograms
   summed bucket-by-bucket.  This is *not* [diff]: the sources are
   absolute per-instance totals, not successive samples of one stream,
   so Prometheus counter-reset semantics (cur < prev → delta = cur)
   must never be applied here — two guests with different reset epochs
   would silently drop one guest's traffic.  Values add; min/max
   widen. *)
let merge_into ~into src =
  for i = 0 to src.nordered - 1 do
    let name, m = src.order.(i) in
    match m with
    | Counter c -> add (counter into name) c.c
    | Gauge g ->
        let dst = gauge into name in
        set dst (gauge_value dst + g.g)
    | Histogram h ->
        let dst = histogram into name in
        if h.n > 0 then begin
          for b = 0 to nbuckets - 1 do
            dst.buckets.(b) <- dst.buckets.(b) + h.buckets.(b)
          done;
          if dst.n = 0 then begin
            dst.mn <- h.mn;
            dst.mx <- h.mx
          end
          else begin
            if h.mn < dst.mn then dst.mn <- h.mn;
            if h.mx > dst.mx then dst.mx <- h.mx
          end;
          dst.n <- dst.n + h.n;
          dst.sum <- dst.sum + h.sum
        end
  done

let merge srcs =
  let into = create () in
  List.iter (fun src -> merge_into ~into src) srcs;
  into

let dump t =
  refresh t;
  let buf = Buffer.create 256 in
  List.iter
    (fun name ->
      match Hashtbl.find t.tbl name with
      | Counter c -> Buffer.add_string buf (Printf.sprintf "%-40s %d\n" name c.c)
      | Gauge g -> Buffer.add_string buf (Printf.sprintf "%-40s %d (gauge)\n" name g.g)
      | Histogram h ->
          Buffer.add_string buf
            (Printf.sprintf "%-40s count=%d sum=%d min=%d max=%d mean=%.1f p50=%d p95=%d p99=%d\n"
               name h.n h.sum h.mn h.mx (mean h) (percentile h 50.0) (percentile h 95.0)
               (percentile h 99.0)))
    (names t);
  Buffer.contents buf

let to_json t =
  refresh t;
  let pick f =
    Json.Obj
      (List.filter_map (fun n -> Option.map (fun v -> (n, v)) (f (Hashtbl.find t.tbl n))) (names t))
  in
  Json.Obj
    [
      ("counters", pick (function Counter c -> Some (Json.Int c.c) | _ -> None));
      ("gauges", pick (function Gauge g -> Some (Json.Int g.g) | _ -> None));
      ( "histograms",
        pick (function
          | Histogram h ->
              let p q = Json.Int (percentile h q) in
              Some
                (Json.Obj
                   [
                     ("count", Json.Int h.n); ("sum", Json.Int h.sum); ("min", Json.Int h.mn);
                     ("max", Json.Int h.mx); ("mean", Json.Num (Printf.sprintf "%g" (mean h)));
                     ("p50", p 50.0); ("p95", p 95.0); ("p99", p 99.0); ("p999", p 99.9);
                   ])
          | _ -> None) );
    ]
