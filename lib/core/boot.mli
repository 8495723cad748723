(** System bring-up: native CVM and Veil CVM.

    [boot_veil] reproduces the paper's modified boot flow (§5.1): the
    hypervisor launches the measured boot image with a single VMPL-0
    VCPU running VeilMon, which protects memory, installs services,
    replicates the VCPU and only then drops into the kernel at
    Dom_UNT.  [boot_native] is the baseline: the same kernel booted at
    VMPL-0 with no monitor, used by every native-vs-Veil experiment. *)

type veil_system = {
  platform : Sevsnp.Platform.t;
  hv : Hypervisor.Hv.t;
  mon : Monitor.t;
  kernel : Guest_kernel.Kernel.t;
  kci : Kci.t;
  slog : Slog.t;
  enc : Encsvc.t;
  vtpm : Vtpm.t;
  vcpu : Sevsnp.Vcpu.t;
  layout : Layout.t;
  boot_cycles : int;  (** guest cycles consumed by the whole boot *)
}

type native_system = {
  n_platform : Sevsnp.Platform.t;
  n_hv : Hypervisor.Hv.t;
  n_kernel : Guest_kernel.Kernel.t;
  n_vcpu : Sevsnp.Vcpu.t;
  n_boot_cycles : int;
}

val boot_veil :
  ?npages:int ->
  ?log_frames:int ->
  ?seed:int ->
  ?activate_kci:bool ->
  ?chaos:Chaos.Fault_plan.t ->
  unit ->
  veil_system
(** Defaults: [npages = 8192] (32 MB guest), KCI activated.  [?chaos]
    arms a Veil-Chaos fault plan on the platform right after creation
    (so the boot sweep itself runs under injection); it is the only
    way a plan reaches a guest, so a boot without it runs disarmed. *)

val boot_native : ?npages:int -> ?seed:int -> unit -> native_system

val default_npages : int

(* Veil-Ring: opt-in batched submission rings *)

val enable_rings : ?slots:int -> veil_system -> unit -> unit
(** Switch the booted system to batched monitor traffic: allocate one
    {!Ring.t} per existing VCPU from OS memory, register each with
    VeilMon (placement-checked), and reinstall the kernel hooks so
    fire-and-forget requests (audit records, pt_syncs) ride the
    current VCPU's ring — flushed at the syscall tail once half full,
    or inline on full-ring backpressure — while synchronous calls
    flush first to preserve program order.  VCPUs must already be
    booted (call after {!Smp.bring_up}); rings stay on until the
    system is discarded. *)

val rings_enabled : veil_system -> bool

(* Veil-Pulse: attested telemetry anchoring *)

val anchor_pulse : veil_system -> int
(** Drain the platform sampler's pending interval anchors into
    VeilS-LOG through the ordinary (ringable) [R_log_append] path, one
    record per captured interval (sysno [Write], pid 0, detail
    ["pulse i=<n> t1=<cycle> digest=<hex> chain=<hex>"]), then flush
    the rings so every anchor is observable.  Returns how many anchors
    were appended.  Only anchors pending at entry are drained — the
    drain's own monitor traffic may close further intervals, which
    ride the next call. *)

val pulse_anchor_lines : veil_system -> string list
(** The pulse anchor lines VeilS-LOG currently retains, oldest first —
    the chain-protected record a remote verifier reads back to learn
    the trusted interval digests. *)

val flush_rings : veil_system -> unit
(** Drain every VCPU's leftover slots — the barrier before reading
    audit logs, counters or any other state that must observe all
    deferred traffic. *)
