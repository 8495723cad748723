(** E-scale — strong-scaling SMP measurement harness (Veil-SMP, §5),
    shared by [bench escale], [veilctl scope], and [veilctl report]'s
    drift checks so all three regenerate the same numbers.

    Boots a Veil guest, brings up APs through the monitor's
    [R_vcpu_boot] protocol, runs a workload under the deterministic
    seeded interleaver, and accounts per-VCPU cycles — including the
    serialized-monitor wait ledger ({!Veil_core.Monitor.wait_stats}),
    which measures the slice the hw-amdahl column used to infer. *)

type result = {
  es_ops : int;
  es_wall : int;  (** max per-VCPU cycle delta: the simulated wall clock *)
  es_busy : int;  (** sum of per-VCPU deltas *)
  es_mon : int;  (** Monitor + Switch bucket cycles: work funneled through VeilMon *)
  es_prof_mon_self : int;  (** Veil-Prof: os_call frame self cycles *)
  es_prof_mon_hits : int;
  es_steals : int;
  es_journal : string;
  es_wait : Veil_core.Monitor.wait_stats;
      (** serialized-monitor entry ledger over the measurement window
          (boot and AP bring-up traffic excluded) *)
}

val inter_seed : int
(** Deterministic interleaver seed for every E-scale run (1911); the
    guest RNG follows the caller's seed, so the two axes of
    reproduction stay independent. *)

val vcpu_counts : unit -> int list
(** [1; 2; 4; 8], overridable via [VEIL_ESCALE_VCPUS] (clamped to the
    monitor's 8-VCPU IDCB provisioning). *)

val throughput : result -> float
(** ops per simulated second. *)

val serialized_pct : result -> float
(** Measured percent of total busy cycles that held the serialized
    monitor ([es_wait.ws_busy_cycles / es_busy]) — ground truth for the
    E-scale [serialized%] column. *)

val amdahl_ceiling : serial_frac:float -> nvcpus:int -> float
(** [1 / (s + (1-s)/N)]. *)

val slo_good_below : int
(** Default pulse-run SLO latency target: 95% of syscalls at or under
    [2^14 - 1] cycles per trailing {!slo_window}-interval window —
    audited appends through VeilMon land above this, so audit-heavy
    workloads burn visible error budget. *)

val slo_window : int

val measure :
  ?trace:bool ->
  ?rings:bool ->
  ?pulse:int ->
  nvcpus:int ->
  seed:int ->
  spawn_work:(Veil_core.Boot.veil_system -> Veil_core.Smp.t -> int) ->
  unit ->
  result * Veil_core.Boot.veil_system
(** Boot, bring up [nvcpus], reset the monitor wait ledger, spawn the
    workload (returns its op count), interleave to completion, account.
    [trace] (default false) additionally arms the platform tracer for
    the run — [veilctl scope] reads the ring afterwards.  [rings]
    (default false) enables Veil-Ring batched submission rings after
    AP bring-up, with a {!Veil_core.Boot.flush_rings} barrier before
    the counters are read.  [pulse] (default off) arms the Veil-Pulse
    sampler with the given interval (cycles) at window start, declares
    the default syscall-latency objective ({!slo_good_below}), and at
    window end closes the tail interval and anchors every captured
    interval into VeilS-LOG — read the series off
    [sys.platform.pulse]. *)

val pulse_json : Veil_core.Boot.veil_system -> Obs.Json.t
(** Veil-Pulse per-interval timeseries of a measured run as one JSON
    object: [interval]/[captured]/[overwritten], an [intervals] array
    ([i], [t0], [t1], [syscalls], windowed [p50]/[p99]/[p999] of
    [kernel.syscall_cycles], [vmgexits]) and an [slo] array of burn
    reports.  Shared by the bench JSON document and
    [veilctl pulse --json]. *)

val syscall_work : ops_total:int -> Veil_core.Boot.veil_system -> Veil_core.Smp.t -> int
(** syscall-bench: a worker per VCPU splits [ops_total] getpid calls;
    every 32nd op is an audited open/close whose log append is an IDCB
    call into VeilMon — the serialized slice of the workload. *)

val http_work : requests:int -> Veil_core.Boot.veil_system -> Veil_core.Smp.t -> int
(** HTTP-server: one listener pinned to the boot VCPU accepts one
    connection per VCPU (minimum 4, so counts up to 4 keep their
    historical schedules) and spawns a handler per connection;
    handlers and clients are distributed over the VCPUs.  The response
    path is audited (Sendto), so every reply drags a log append
    through VeilMon. *)
