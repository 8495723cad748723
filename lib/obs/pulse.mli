(** Veil-Pulse: continuous time-series telemetry with attested export.

    A cycle-epoch sampler for the metrics registry.  {!tick} runs on
    the platform's world-exit paths (next to the chaos watchdog);
    whenever at least [interval] cycles have elapsed since the current
    epoch opened, the whole registry is captured as a *delta-encoded*
    snapshot into a bounded interval ring: per-interval counter
    deltas, gauge values at capture, and interval-scoped histogram
    buckets from which *windowed* percentiles (p50/p99/p999 of the
    traffic inside the window, not since boot) are computed at
    readout.  Epochs are at least [interval] cycles long and close on
    world-exit boundaries.

    Disarmed, {!tick} is a single flag test; armed with no interval
    elapsing it performs only integer compares — the micro bench pins
    both at zero allocation.

    Tamper evidence: each captured interval is serialized to a
    canonical line, hashed, and folded into a running SHA-256 chain
    ([H(prev || line)], the VeilS-LOG shape).  An anchor line carrying
    the interval digest and chain head is queued for the VeilS-LOG
    region via the ordinary (ringable) [R_log_append] path — see
    [Boot.anchor_pulse].  {!verify_export} recomputes digests and the
    chain over exported data and pinpoints the exact interval a
    hypervisor dropped, reordered, or edited.

    A declarative SLO layer ({!objective}) counts good-vs-bad events
    per burn window straight off the ring's bucket deltas and emits a
    threshold-crossing instant event into the trace ring when the
    error-budget burn rate goes strictly over 1.0. *)

type t

val create : ?ring_cap:int -> metrics:Metrics.t -> unit -> t
(** Fresh sampler, disarmed, retaining the last [ring_cap] (default
    64, clamped to >= 4) intervals. *)

val set_tracer : t -> Trace.t option -> unit
(** Where SLO threshold-crossing instants go (bucket ["pulse"]). *)

val arm : t -> interval:int -> now:int -> unit
(** Start sampling with epochs of [interval] cycles, opening the first
    epoch at cycle [now].  Resets the series (ring, chain, pending
    anchors, objective accounting) and takes the baseline snapshot the
    first interval deltas against. *)

val disarm : t -> unit
val armed : t -> bool
val interval_cycles : t -> int

val tick : t -> now:int -> bool
(** The world-exit hook.  Disarmed: one flag test.  Armed: advance the
    machine clock (max of per-VCPU cycle counters) and capture an
    interval if the epoch has elapsed.  Allocation-free unless a
    capture fires.  Returns whether a capture fired, so the platform
    can charge the modeled sampling cost to the ticking VCPU. *)

val flush : t -> now:int -> unit
(** Force-close the current partial epoch (if any cycles elapsed) so
    the tail of a run is recorded.  Call at end-of-measurement. *)

(** {2 Readout} *)

val captured : t -> int
(** Intervals captured since {!arm}. *)

val retained : t -> int
(** Intervals still in the ring: [min (captured t) ring_cap]. *)

val overwritten : t -> int
(** Intervals lost to ring wraparound. *)

val first_retained : t -> int
(** Global index of the oldest retained interval. *)

val bounds : t -> int -> (int * int) option
(** [(t0, t1)] cycle bounds of retained interval [i] (global index). *)

val counter_delta : t -> metric:string -> int -> int option
(** Counter delta of [metric] inside retained interval [i]. *)

val gauge_at : t -> metric:string -> int -> int option
(** Gauge value of [metric] at the capture closing interval [i]. *)

val hist_window : t -> metric:string -> window:int -> upto:int -> (int array * int * int) option
(** Merge the interval-scoped buckets of histogram [metric] over the
    [window] retained intervals ending at global index [upto]:
    [(buckets, count, sum)].  None when the metric is unknown, not a
    histogram, or no interval in range is retained. *)

val wpercentile : buckets:int array -> float -> int
(** Percentile over windowed (interval-scoped) buckets: the upper
    bound of the bucket holding the rank-th windowed observation,
    clamped to the highest non-empty bucket's bound.  [p >= 100]
    returns that highest bound.  0 when the window is empty. *)

(** {2 SLOs} *)

val objective : t -> name:string -> metric:string -> good_below:int -> slo:float -> window:int -> unit
(** Declare an objective: over every trailing [window] intervals, at
    least fraction [slo] (in (0,1), e.g. 0.999) of [metric]'s
    observations must fall in buckets wholly at or below [good_below]
    cycles (partial buckets count bad — conservative).  The error
    budget is [(1 - slo) * total]; burn rate is [bad / budget].  A
    crossing fires (trace instant [slo.<name>], bucket ["pulse"]) when
    burn goes *strictly* over 1.0 — exactly on budget is on-target.
    Evaluated at every capture; accounting is integer-exact in
    parts-per-million so the on-target edge cannot be lost to float
    rounding. *)

type burn_report = {
  br_name : string;
  br_metric : string;
  br_good_below : int;
  br_slo : float;
  br_window : int;
  br_total : int;  (** events in the current window *)
  br_bad : int;  (** events over target *)
  br_budget : float;  (** allowed bad events *)
  br_burn : float;  (** bad / budget; 0 when both are 0 *)
  br_crossed : bool;  (** currently burning over 1.0 *)
  br_crossings : int;  (** edge-triggered crossing count *)
}

val burn_reports : t -> burn_report list
(** One report per declared objective, registration order. *)

(** {2 Attested export} *)

val chain_digest : t -> bytes
(** Running SHA-256 chain head over every captured interval line. *)

val pending_anchors : t -> int

val pop_anchor : t -> string option
(** Oldest not-yet-anchored interval's anchor line
    (["pulse i=<n> t1=<cycle> digest=<hex> chain=<hex>"]) — Boot
    drains these into VeilS-LOG through [R_log_append]. *)

val anchors_emitted : t -> int
(** Anchor lines handed out so far. *)

val export : t -> string
(** Serialized retained intervals (header + one canonical line each) —
    the telemetry a hypervisor would ship to a remote verifier, and
    the input {!verify_export} checks. *)

val verify_export : t -> string -> (int, int * string) result
(** Recompute every exported interval's digest (and, when the whole
    series is retained, the full chain) against the trusted per-
    interval digests.  [Ok n] on a clean export of [n] intervals;
    [Error (i, reason)] pinpoints the first dropped / reordered /
    edited interval. *)
