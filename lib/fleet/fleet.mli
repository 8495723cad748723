(** Veil-Fleet: N full CVM platform instances behind a simulated load
    balancer, driven by open-loop traffic (ROADMAP item 2 — the
    millions-of-users shape: confidential VMs provisioned as cattle).

    Every guest is a complete, isolated platform — its own RMP/arena,
    VeilMon, metrics registry, pulse sampler, and (optionally) a chaos
    plan derived from its per-guest seed.  A dispatcher assigns each
    arrival to a guest, and within the guest to a service lane (one
    per VCPU); the request then *actually executes* in that guest —
    http GET over the socket path, memcached command over a
    connection, or a SQL statement through the B-tree pager — with the
    lane's VCPU cycle counter measuring true service time.  Sojourn
    (reported latency) is queueing delay under the open-loop clock
    plus that measured service time.

    Dispatch is deliberately round-robin at both levels by default:
    a guest's execution trace then depends only on its own seed and
    its request count, never on co-tenant timing — the property the
    cross-tenant oracle and the wait-ledger isolation test pin down.

    Fleet-aggregate percentiles come from {!Obs.Metrics.merge} over
    the guests' registries (bucket-wise sums — no per-guest
    counter-reset semantics; see DESIGN.md §15). *)

module Arrival = Arrival
(** Re-export: consumers build a {!config}'s arrival process as
    [Fleet.Arrival.Poisson ...] without reaching into the library. *)

type workload = Http | Memcached | Sqldb

val workload_name : workload -> string
val workload_of_name : string -> workload option

type mode = Open_loop | Closed_loop

type lb = Round_robin | Least_loaded

type config = {
  guests : int;  (** platform instances (>= 1) *)
  vcpus : int;  (** service lanes per guest (1..8) *)
  seed : int;  (** operator seed; per-guest seeds derive from it *)
  requests : int;  (** total arrivals across the fleet *)
  workload : workload;
  process : Arrival.process;
  mode : mode;
      (** [Open_loop] queues arrivals against busy lanes (sojourn =
          wait + service); [Closed_loop] runs one back-to-back client
          per lane, so reported latency is service only — the
          coordinated-omission comparison baseline. *)
  lb : lb;
  rings : bool;  (** Veil-Ring batched submission rings *)
  chaos : bool;
      (** arm a per-guest fault plan (recoverable sites) derived from
          the guest seed *)
  pulse : int option;  (** Veil-Pulse sampling interval in cycles *)
  hostile : int option;
      (** index of a guest whose (compromised) kernel fires
          cross-tenant probes alongside its traffic — all must be
          blocked, and no other guest's numbers may move *)
  first_guest : int;
      (** id of the first guest (default 0).  Guest identity — seed,
          content stream, chaos plan — is a function of the id alone,
          so a 1-guest run with [first_guest = g] boots exactly guest
          [g] of a larger fleet (the wait-ledger isolation test relies
          on this). *)
}

val default : config
(** 4 guests x 4 VCPUs, 400 http requests, Poisson at 60% of a
    calibrated single-lane service rate, open loop, round-robin,
    seed 97. *)

val guest_seed : config -> int -> int
(** The derived per-guest boot seed for guest id [i]. *)

type guest_report = {
  gr_id : int;
  gr_seed : int;
  gr_requests : int;
  gr_p50 : int;  (** sojourn percentiles, cycles *)
  gr_p99 : int;
  gr_p999 : int;
  gr_mean_svc : float;  (** mean measured service cycles *)
  gr_wait : Veil_core.Monitor.wait_stats;
      (** this guest's serialized-monitor entry ledger over the
          serving window *)
  gr_journal : string;  (** lane digit per request served, in order *)
  gr_slog_ok : bool;  (** VeilS-LOG hash chain verified *)
  gr_log_lines : int;
      (** protected log lines fetched over the attested channel
          (exercises the typed reconnect-and-retry path) *)
  gr_data_digest : string;  (** workload-state digest (hex) *)
  gr_hist_digest : string;  (** digest of this guest's registry dump *)
  gr_blocked : int;  (** hostile probes stopped (0 for benign guests) *)
  gr_hostile : bool;
  gr_chaos_hits : int;
}

type report = {
  r_guests : guest_report array;
  r_mode : mode;
  r_workload : workload;
  r_vcpus : int;
  r_requests : int;
  r_wall_cycles : int;
  r_throughput : float;  (** requests/second achieved *)
  r_offered : float;  (** requests/second offered (arrival process mean) *)
  r_p50 : int;  (** fleet-aggregate sojourn percentiles from the merged histogram *)
  r_p99 : int;
  r_p999 : int;
  r_mean : float;
  r_merged_digest : string;
      (** digest of the merged fleet registry — replay identity in one
          string *)
  r_lb_journal : string;  (** guest digit per arrival, in order *)
}

val run : config -> report
(** Boot the fleet, drive the traffic, tear down, and report.
    Deterministic: identical [config] -> identical report (journals,
    digests, and every number).  Guests that nothing couples each run
    their whole lifetime as one task, on up to
    [Domain.recommended_domain_count ()] domains; the report does not
    depend on how many. *)

val calibrate : config -> float
(** Mean service cycles per request of this workload at these
    settings, measured on a short closed-loop probe fleet (separate
    instances; does not disturb a subsequent {!run}). *)

val rate_for : config -> utilization:float -> mean_service_cycles:float -> float
(** The offered rate (requests/second) that loads the whole fleet
    ([guests * vcpus] lanes) to the given utilization, e.g. 0.6 for a
    comfortably stable open loop, > 1.0 to demonstrate unbounded
    open-loop queue growth. *)

val report_json : report -> string
