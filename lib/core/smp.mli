(** Veil-SMP: multi-VCPU guest execution.

    {!bring_up} boots application processors *through the monitor*:
    for each AP the boot VCPU issues the §5 [R_vcpu_boot] delegation,
    and VeilMon hot-plugs the VCPU, creates/validates its per-domain
    VMSA replicas and IDCB, provisions its kernel GHCB and has the
    hypervisor enter it at Dom_UNT.

    {!run} then drives the guest with the host's deterministic
    interleaver ({!Hypervisor.Hv.Interleave}): one runnable VCPU is
    picked per step, the kernel is retargeted at it
    ({!Guest_kernel.Kernel.set_vcpu}) and at most one coroutine from
    its runqueue is stepped — with deterministic work stealing when
    its own queue has nothing runnable.  Same policy + seed + VCPU
    count produce the identical schedule (see {!journal}). *)

type t

val bring_up :
  ?policy:Hypervisor.Hv.Interleave.policy -> Boot.veil_system -> nvcpus:int -> unit -> t
(** Boot the APs among [1 .. nvcpus-1] that are not yet running via
    the monitor (the boot VCPU is id 0), then set up fresh per-VCPU
    runqueues and the interleaver.  Calling it again on a system whose
    APs are already up only attaches a new scheduler and interleaver:
    Veil-Explore brings up once, snapshots, and re-attaches each
    branch's guided interleaver to its fork.  Default policy is
    [Round_robin].  Raises [Failure] if the monitor refuses a
    bring-up. *)

val spawn : ?vcpu:int -> t -> name:string -> (unit -> unit) -> unit
(** Register a coroutine; [vcpu] pins its home runqueue (default:
    round-robin assignment). *)

val run : ?max_steps:int -> t -> unit
(** Interleave until every coroutine finished.  Raises
    {!Guest_kernel.Sched.Deadlock} when all live coroutines are
    blocked.  [max_steps] (default: unbounded) is the Veil-Explore
    schedule watchdog: exceeding it raises
    [Sevsnp.Types.Cvm_halted "chaos watchdog: ..."], which the shared
    chaos classifier maps to [Watchdog].  Always restores the kernel's
    current VCPU to the boot VCPU on exit. *)

val sched : t -> Guest_kernel.Sched.t
val nvcpus : t -> int

val vcpu : t -> int -> Sevsnp.Vcpu.t
(** The hardware VCPU with the given id. *)

val journal : t -> string
(** The interleaver's schedule journal: one digit per step. *)

val schedule_steps : t -> int

val steals : t -> int
(** Cross-runqueue task migrations performed so far. *)
