(** Unified metrics registry: named counters, gauges, and log₂-bucketed
    histograms.

    A registry is an instance-scoped name → metric table; every
    simulated machine owns exactly one (hanging off its
    [Sevsnp.Platform.t]), so two CVMs booted side by side (migration,
    the E1 native/Veil comparison) never mix numbers.  Metric handles
    are interned: asking twice for the same name returns the same
    storage, so components grab their handles once at creation and
    update them with plain unboxed int stores — safe on hot paths.

    Histograms bucket observations by log₂: bucket 0 holds value 0,
    bucket [i >= 1] holds values in [[2^(i-1), 2^i - 1]].  Percentile
    readout returns the *upper bound* of the bucket containing the
    requested rank, clamped to the observed maximum — a conservative
    (at-most) latency estimate; see DESIGN.md §9b. *)

type counter
type gauge
type histogram

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t

val create : unit -> t

val counter : t -> string -> counter
(** Get-or-create.  Raises [Invalid_argument] if [name] is already
    registered as a different metric kind. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> int -> unit
val gauge_value : gauge -> int

val observe : histogram -> int -> unit
(** Record one observation (negative values clamp to 0). *)

val hist_count : histogram -> int
val hist_sum : histogram -> int
val hist_min : histogram -> int
(** 0 when empty. *)

val hist_max : histogram -> int

val mean : histogram -> float
(** Exact arithmetic mean ([sum / count]); 0.0 when empty. *)

val percentile : histogram -> float -> int
(** [percentile h p] for [p] in (0, 100): the *upper* bound of the
    log₂ bucket holding the observation of rank
    [ceil(p/100 * count)], clamped to the observed max — a
    conservative latency estimate (the rank-th sample is at most this
    value).  The pre-SMP lower-bound answer under-reported by up to
    2x; see DESIGN.md §9b.  [p >= 100] returns the true observed max
    ({!hist_max}).  0 when empty. *)

val find : t -> string -> metric option

val set_refresh : t -> (unit -> unit) -> unit
(** Install a registry-wide refresh hook for lazily-maintained gauges
    (e.g. [trace.dropped], which only the platform can true up).  The
    hook runs before every {!dump}, {!to_json}, and {!snapshot_take},
    so no direct registry read ever sees a stale gauge.  Must not
    allocate: it runs on the sampler hot path. *)

val refresh : t -> unit
(** Run the installed refresh hook (no-op by default). *)

(** {2 Snapshots}

    A snapshot is a preallocated flattened int-array image of every
    registered metric, addressed by registration order (indices are
    dense, append-only, and survive {!reset}).  Taking one performs no
    interning and — once sized — no allocation, so the Veil-Pulse
    sampler can capture intervals on the world-exit path.  Slot layout
    per metric: counter → 1 slot, gauge → 1 slot, histogram →
    {!nbuckets} bucket-count slots then n / sum / min / max
    ({!hist_slots} total). *)

val nbuckets : int
(** Number of log₂ buckets per histogram (63). *)

val bucket_hi : int -> int
(** Upper bound of bucket [i]: 0 for bucket 0, else [2^i - 1]. *)

val hist_slots : int
(** Snapshot slots per histogram: [nbuckets + 4]. *)

type skind = K_counter | K_gauge | K_histogram

type snapshot

val snapshot_create : t -> snapshot
(** Allocate a snapshot sized for the current registry. *)

val snapshot_take : t -> snapshot -> unit
(** Run the refresh hook, then copy every metric's current values into
    the snapshot.  Allocation-free unless the registry grew since the
    snapshot was last sized (then the buffers regrow once). *)

val snap_metrics : snapshot -> int
(** Number of metrics covered. *)

val snap_slots : snapshot -> int
(** Total int slots used. *)

val snap_name : snapshot -> int -> string
val snap_kind : snapshot -> int -> skind
val snap_offset : snapshot -> int -> int

val diff : prev:snapshot -> cur:snapshot -> into:int array -> unit
(** Per-interval deltas of [cur] against [prev], written into the
    caller-owned [into] (length >= [snap_slots cur]).  Counter and
    histogram bucket/count/sum slots delta with counter-reset
    semantics ([cur < prev] → delta = [cur], Prometheus-style); gauge
    and histogram min/max slots carry the current value.  Metrics
    registered after [prev] was taken delta against zero. *)

val merge : t list -> t
(** A fresh registry holding the sum of the given registries —
    fleet-aggregate percentiles read straight off it.  Metrics are
    matched by name: counters and gauges add, histogram buckets /
    count / sum add bucket-wise, min/max widen.  This is the
    cross-instance (Veil-Fleet) aggregation path and is deliberately
    *not* {!diff}: sources are absolute per-instance totals, so no
    Prometheus counter-reset semantics are applied — merging guests
    with different reset epochs is exact.  Raises [Invalid_argument]
    if a name is registered as two different metric kinds. *)

val names : t -> string list
(** All registered names, sorted. *)

val reset : t -> unit
(** Zero every registered metric (registrations persist). *)

val dump : t -> string
(** Flat text, one metric per line, sorted by name. *)

val to_json : t -> Json.t
(** One JSON object: [{"counters":{..},"gauges":{..},"histograms":{..}}]
    with mean/p50/p95/p99/p999 readouts inlined per histogram. *)
