(** The SEV-SNP machine: memory + RMP + VCPUs + instruction semantics.

    This is the hardware boundary of the simulation.  Guest software
    (kernel, VeilMon, services, enclaves) may only touch memory through
    the checked accessors here, which enforce RMP/VMPL permissions and
    halt the CVM on violation — exactly the paper's failure model
    ("the CVM halts with continuous #NPF").  The hypervisor side uses
    the [host_*] accessors, which the hardware limits to [Shared]
    pages. *)

type t = {
  mem : Phys_mem.t;
  rmp : Rmp.t;
  mutable vcpus_rev : Vcpu.t list;  (** newest first; use {!vcpus} / {!vcpu_by_id} *)
  mutable nvcpus : int;
  ghcbs : (Types.gpfn, Ghcb.t) Hashtbl.t;
  attestation : Attestation.t;
  rng : Veil_crypto.Rng.t;
  mutable halted : string option;
  mutable exit_handler : (Vcpu.t -> unit) option;  (** installed by the hypervisor *)
  mutable npf_count : int;  (** #NPFs taken (validation experiments) *)
  vmsa_table : (Types.gpfn, Vmsa.t) Hashtbl.t;  (** hardware's view of VMSA frames *)
  metrics : Obs.Metrics.t;
      (** this machine's metrics registry; every layer running on the
          platform (hypervisor, kernel, monitor, slog, ...) folds its
          counters in here, scoped per machine so side-by-side CVMs
          (migration, native-vs-Veil comparisons) never mix numbers *)
  tracer : Obs.Trace.t;  (** this machine's event tracer (off by default) *)
  profiler : Obs.Profiler.t;
      (** this machine's cycle-attribution profiler (off by default);
          the platform charges the hardware legs — VMGEXIT, VMSA
          save/restore, GHCB protocol, RMPADJUST, PVALIDATE — as
          profiler leaves, and upper layers (hypervisor, kernel,
          monitor, SDK) open the surrounding frames *)
  pulse : Obs.Pulse.t;
      (** Veil-Pulse epoch sampler, disarmed by default; [tick]ed on
          every world exit right after the chaos watchdog, so armed it
          captures delta-encoded registry snapshots on exit boundaries
          and disarmed it costs one flag test *)
  mutable chaos : Chaos.Fault_plan.t option;
      (** armed Veil-Chaos fault plan, [None] in normal operation; the
          platform's instruction/exit paths and the hypervisor consult
          it at each injection site (§ DESIGN.md "Fault model") *)
  c_npf : Obs.Metrics.counter;  (** handle for "platform.npf" *)
  c_rmpadjust : Obs.Metrics.counter;
  c_pvalidate : Obs.Metrics.counter;
  c_vmgexit : Obs.Metrics.counter;  (** world exits, VMGEXIT and automatic *)
  c_vmenter : Obs.Metrics.counter;
  c_tlb_hit : Obs.Metrics.counter;  (** "tlb.hit": translations served from a VCPU TLB *)
  c_tlb_miss : Obs.Metrics.counter;  (** "tlb.miss": full walk + RMP check taken *)
  c_tlb_flush : Obs.Metrics.counter;
      (** "tlb.flush": invalidation events — page-table shootdowns,
          RMP-mutating instructions, VCPU instance switches *)
  c_ipi : Obs.Metrics.counter;
      (** "platform.ipi": shootdown/reschedule IPIs delivered to remote
          VCPUs (Veil-SMP) *)
  g_trace_dropped : Obs.Metrics.gauge;
      (** "trace.dropped": events lost to trace-ring wraparound, synced
          by {!refresh_obs_gauges} *)
}

exception Guest_page_fault of { fault_va : Types.va; fault_access : Types.access }
(** Guest-level #PF from a page-table miss / flag violation; delivered
    to the OS (or, for enclaves, the demand-paging path). *)

val create : ?seed:int -> npages:int -> unit -> t

val halt : t -> string -> 'a
(** Record the halt and raise {!Types.Cvm_halted}. *)

val is_halted : t -> string option

(* Veil-Chaos fault injection *)

val arm_chaos : t -> Chaos.Fault_plan.t -> unit
(** Arm a fault plan on this machine.  While no plan is armed every
    injection site costs its hot path exactly one [None] check. *)

val disarm_chaos : t -> unit

val chaos_mark : t -> Vcpu.t option -> string -> unit
(** Record one injection: bumps the lazily-interned ["chaos." ^ name]
    counter and emits an instant trace event (bucket ["chaos"]) so
    chaos runs render in Perfetto.  Used by every layer that injects
    (platform, hypervisor). *)

val chaos_flip_shared : t -> Chaos.Fault_plan.t -> unit
(** Flip one uniformly-drawn bit in one uniformly-drawn [Shared]
    frame.  Private frames are never candidates (SNP integrity
    protection); a machine with no shared frames is a no-op. *)

(* Launch *)

val launch_load : t -> entry_name:string -> (Types.gpa * bytes) list -> unit
(** Hypervisor launch sequence: validate the covered frames, install
    contents, measure them (with their load addresses) into the launch
    digest, and record it for attestation. *)

val add_boot_vcpu : t -> Vcpu.t
(** The single VCPU the hypervisor creates at launch; its first
    instance must be installed with {!vmenter}. *)

val add_vcpu : t -> Vcpu.t
(** Hot-plug: allocate the next VCPU id (not yet running). *)

val vcpus : t -> Vcpu.t list
(** All VCPUs in creation (id) order. *)

val vcpu_count : t -> int

val vcpu_by_id : t -> int -> Vcpu.t option

val tlb_shootdown : t -> unit
(** Bump the machine-wide TLB generation, invalidating every VCPU's
    cached translations.  {!Pagetable.io}[.invalidate] should point
    here for any table the MMU (and hence the TLB) can consult.  This
    is the *correctness* half of a shootdown; it charges nothing. *)

val tlb_shootdown_distributed : t -> initiator:Vcpu.t -> unit
(** The *cost* half of a distributed TLB shootdown (Veil-SMP): charge
    the initiating VCPU [Cycles.tlb_local_flush] plus
    [Ipi.initiator_cost] per remote VCPU, charge each remote VCPU
    [Cycles.ipi_handler], and flush every VCPU's TLB epoch.  With one
    VCPU this is exactly the pre-SMP flat 500-cycle charge.  Callers
    must already have bumped the generation via the page-table edit
    ({!tlb_shootdown}). *)

val refresh_obs_gauges : t -> unit
(** Sync on-demand observability gauges — currently ["trace.dropped"]
    (events lost to ring wraparound since the last clear).  [create]
    installs this as the registry's refresh hook, so [Metrics.to_json],
    [Metrics.dump], and every Veil-Pulse snapshot already run it;
    explicit calls remain for exporters outside the registry. *)

val export_pulse : t -> string
(** Serialize the retained Veil-Pulse intervals *through the
    hypervisor*: the [Pulse_export_tamper] chaos site may corrupt or
    drop one interval line in flight (marked via {!chaos_mark}).
    Feed the result to [Obs.Pulse.verify_export] — on a tampered
    export it pinpoints the damaged interval. *)

(* Checked guest memory access *)

val read : t -> Vcpu.t -> Types.gpa -> int -> bytes
val write : t -> Vcpu.t -> Types.gpa -> bytes -> unit

val read_into : t -> Vcpu.t -> Types.gpa -> bytes -> int -> int -> unit
(** [read_into t vcpu gpa buf pos len]: {!read} into a caller buffer —
    nothing allocated on the permitted path. *)

val write_sub : t -> Vcpu.t -> Types.gpa -> bytes -> int -> int -> unit
(** [write_sub t vcpu gpa data pos len]: checked write of a slice of
    [data] without the [Bytes.sub] copy. *)

val read_u64 : t -> Vcpu.t -> Types.gpa -> int
val write_u64 : t -> Vcpu.t -> Types.gpa -> int -> unit
val check_exec : t -> Vcpu.t -> Types.gpa -> unit

val read_via_pt : t -> Vcpu.t -> root:Types.gpfn -> Types.va -> int -> bytes
(** Translate through the given page-table root with the VCPU's
    current CPL (user pages only at CPL-3), then RMP-check.  Raises
    {!Guest_page_fault} on translation failure. *)

val write_via_pt : t -> Vcpu.t -> root:Types.gpfn -> Types.va -> bytes -> unit

val read_into_via_pt : t -> Vcpu.t -> root:Types.gpfn -> Types.va -> bytes -> int -> int -> unit
(** {!read_via_pt} into a caller buffer. *)

val write_sub_via_pt : t -> Vcpu.t -> root:Types.gpfn -> Types.va -> bytes -> int -> int -> unit
(** {!write_via_pt} of a slice of the given buffer. *)

val read_u64_via_pt : t -> Vcpu.t -> root:Types.gpfn -> Types.va -> int
(** Translated u64 load.  On a TLB hit this is allocation-free: probe,
    cached permission evaluation, direct arena load. *)

val check_exec_via_pt : t -> Vcpu.t -> root:Types.gpfn -> Types.va -> unit
(** Instruction-fetch check through the translation path (faults like
    {!read_via_pt} but with [Execute] semantics — shared pages and NX
    mappings reject it). *)

val translate : t -> root:Types.gpfn -> Types.va -> Pagetable.pte option
(** Raw MMU walk (no VMPL checks — hardware walker). *)

val raw_pt_read : t -> Types.gpa -> int
(** Raw u64 read for walkers; no checks. *)

(* Instructions *)

val rmpadjust :
  t ->
  Vcpu.t ->
  ?bucket:Cycles.bucket ->
  gpfn:Types.gpfn ->
  target:Types.vmpl ->
  perms:Perm.t ->
  vmsa:bool ->
  unit ->
  (unit, string) result
(** RMPADJUST.  Charges instruction + page-touch cycles.  Attempting to
    adjust a frame the caller cannot itself read raises #NPF and halts
    (the paper's Dom_UNT attack outcome); an insufficient-privilege
    target VMPL returns [Error] (architectural FAIL_PERMISSION). *)

val pvalidate : t -> Vcpu.t -> ?bucket:Cycles.bucket -> gpfn:Types.gpfn -> to_private:bool -> unit -> (unit, string) result
(** PVALIDATE; VMPL-0 only (lower VMPLs get FAIL_PERMISSION — the
    architectural restriction behind Veil's delegation, §5.3). *)

val set_ghcb : t -> Vcpu.t -> Types.gpa -> (unit, string) result
(** Write the GHCB MSR for the *current instance*.  The page must be
    [Shared]. *)

val register_ghcb : t -> Types.gpa -> (Ghcb.t, string) result
(** Materialize the GHCB mailbox for an already-[Shared] frame without
    touching any VMSA's GHCB MSR (used when VMPL-0 provisions a GHCB
    for another domain). *)

val ghcb_of_vcpu : t -> Vcpu.t -> Ghcb.t option
val ghcb_at : t -> Types.gpfn -> Ghcb.t option

val vmgexit : t -> Vcpu.t -> unit
(** Non-automatic exit: charges the save-side switch cost and invokes
    the hypervisor's exit handler. *)

val automatic_exit : t -> Vcpu.t -> unit
(** Interrupt-style exit (no GHCB): cheaper save side, same handler. *)

val vmenter : t -> Vcpu.t -> Vmsa.t -> unit
(** Hypervisor resumes the VCPU with [vmsa] as the running instance. *)

val install_vmsa : t -> Vmsa.t -> (unit, string) result
(** Materialize a VMSA in a frame that RMPADJUST has marked as such.
    Fails when the VMSA attribute is missing — which is why only
    software able to RMPADJUST the target VMPL can create instances. *)

val vmsa_at : t -> Types.gpfn -> Vmsa.t option
(** Hardware lookup used by the hypervisor at VMRUN; [None] when the
    frame is not a valid VMSA (the spawn-VCPU attack of Table 1). *)

(* Host-side (hypervisor / external) memory access *)

val host_read : t -> Types.gpa -> int -> (bytes, string) result
val host_write : t -> Types.gpa -> bytes -> (unit, string) result

(* Attestation *)

val attestation_report : t -> Vcpu.t -> report_data:bytes -> Attestation.report
(** Signed report carrying the requester's current VMPL (§5.1). *)
