(** The commodity guest kernel.

    A miniature monolithic kernel faithful to what Veil needs from
    Linux: processes with real page tables in guest memory, a syscall
    interface (the paper's 96-call surface), an in-memory FS and
    loopback network, kaudit, loadable modules, and — in a Veil CVM —
    delegation of every VMPL-0-only operation through {!Hooks.t}
    (§5.3).  The kernel runs at the VMPL its boot mode dictates:
    VMPL-0 natively, VMPL-3 (Dom_UNT) under Veil. *)

type t

val boot :
  platform:Sevsnp.Platform.t ->
  vcpu:Sevsnp.Vcpu.t ->
  free_frames:int * int ->
  text_frames:int * int ->
  data_frames:int * int ->
  unit ->
  t
(** Bring up the kernel on [vcpu] (whose current instance defines the
    kernel's VMPL).  [free_frames] is the [lo, hi) frame range the
    kernel may allocate from; [text_frames]/[data_frames] hold the
    kernel image.  Call {!set_hooks} (Veil mode) and then
    {!finish_boot} before use. *)

val finish_boot : t -> unit
(** Late boot: PVALIDATE guest memory (native mode only — under Veil
    the monitor has already validated and granted access) and set up
    the kernel GHCB. *)

val platform : t -> Sevsnp.Platform.t
val vcpu : t -> Sevsnp.Vcpu.t

(** Veil-SMP: retarget the kernel at the VCPU the interleaver picked;
    every subsequent charge, causal id and monitor call is attributed
    to it.  The VCPU must already be running a Dom_UNT instance (AP
    bring-up through the monitor arranges that). *)
val set_vcpu : t -> Sevsnp.Vcpu.t -> unit
val kernel_vmpl : t -> Sevsnp.Types.vmpl
val fs : t -> Fs.t
val audit : t -> Audit.t
val rng : t -> Veil_crypto.Rng.t

val set_hooks : t -> Hooks.t -> unit
(** Install the Veil hooks; also routes kaudit's emit through
    VeilS-LOG (§6.3). *)

val set_audit_protection : t -> bool -> unit
(** Toggle the VeilS-LOG capture, leaving plain in-memory kaudit
    running — the baseline of experiment E6. *)

val set_ring_flush : t -> (unit -> unit) option -> unit
(** Veil-Ring: install (or remove) the syscall-tail flush hook.  When
    set, it runs after every syscall's dispatch so deferred monitor
    requests batched during the syscall are flushed once the current
    VCPU's submission ring crosses its watermark.  [None] (the
    default) keeps the single-call path byte-identical. *)

val hooks : t -> Hooks.t

val symbol_table : t -> (string * int) list
(** Exported kernel symbols (name, address) for module relocation. *)

val ghcb : t -> Sevsnp.Ghcb.t
(** The kernel's own GHCB (per-VCPU in a full system; one here). *)

(* Memory management *)

val alloc_frame : t -> Sevsnp.Types.gpfn
(** Allocate a guest frame; raises [Failure] when exhausted. *)

val free_frame : t -> Sevsnp.Types.gpfn -> unit
val frames_free : t -> int

val share_page_with_host : t -> Sevsnp.Types.gpfn -> (unit, string) result
(** Page-state change to shared (bounce buffers, GHCBs): PVALIDATE is
    executed directly at VMPL-0, or delegated via [h_pvalidate]. *)

(* Processes *)

val spawn : t -> Process.t
(** Create a process with a fresh page table (pid sequence from 1). *)

val proc : t -> int -> Process.t option
val init_process : t -> Process.t

val map_user_pages : t -> Process.t -> va:Sevsnp.Types.va -> npages:int -> prot:Ktypes.prot -> unit
(** Allocate frames and install user mappings in the process tables. *)

val write_user : t -> Process.t -> va:Sevsnp.Types.va -> bytes -> unit
(** Copy into user memory through the process page tables (checked). *)

val read_user : t -> Process.t -> va:Sevsnp.Types.va -> len:int -> bytes

(* System calls *)

val invoke : t -> Process.t -> Sysno.t -> Ktypes.arg list -> Ktypes.ret
(** The syscall gate: charges entry cost, runs kaudit (execute-ahead
    via the protect hook), dispatches.  Unimplemented calls return
    [ENOSYS]. *)

val syscalls_invoked : t -> int

val invoke_blocking : t -> Process.t -> Sysno.t -> Ktypes.arg list -> Ktypes.ret
(** Like {!invoke}, but under a {!Sched} coroutine: [EAGAIN] from
    accept/recv yields to other runnable processes and retries, so
    servers and clients interleave like real blocking processes.
    Gives up (returns the [EAGAIN]) after a bounded number of
    reschedules to keep misuse debuggable. *)

(* Interrupts & module loading *)

val handle_interrupt : t -> Sevsnp.Vcpu.t -> unit
(** Timer/device ISR; registered with the hypervisor by the boot
    orchestrator. *)

val jiffies : t -> int

val load_module : t -> Kmodule.image -> (Kmodule.loaded, string) result
(** Native path: verify signature in-kernel, allocate, copy, relocate
    against {!symbol_table}, W^X via page flags.  Veil path (hooks
    installed): delegate to VeilS-KCI. *)

val unload_module : t -> string -> (unit, string) result
val find_module : t -> string -> Kmodule.loaded option
val vendor_public_key : t -> Veil_crypto.Bignum.t
val vendor_sign_module : t -> Kmodule.image -> unit
(** Sign with the trusted vendor key (build-system stand-in). *)

(* Enclave support (the §7 kernel module, reachable via ioctl) *)

val open_veil_device : t -> Process.t -> int
(** Returns an fd for /dev/veil. *)

val enclave_create :
  t ->
  Process.t ->
  binary:bytes ->
  heap_pages:int ->
  stack_pages:int ->
  (Enclave_desc.t, Ktypes.errno) result
(** Lay out the enclave region (code/data/stack/heap + user-mapped
    GHCB), then call [h_enclave_finalize]. *)

val enclave_destroy : t -> Process.t -> (unit, Ktypes.errno) result
