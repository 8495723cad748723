(** Enclave runtime — the musl-libc replacement of §7.

    Owns an enclave's lifecycle from the application side: creation
    through the /dev/veil ioctl, entry/exit through the user-mapped
    GHCB, system-call redirection (spec-driven deep copy through the
    shared arena, IAGO checks on returns) and the in-enclave heap.
    Unsupported system calls kill the enclave, as in the prototype. *)

exception Enclave_killed of string

type stats = {
  mutable ocalls : int;
  mutable enclave_entries : int;
  mutable enclave_exits : int;
  mutable redirect_bytes : int;  (** bytes deep-copied across the boundary *)
  mutable redirect_cycles : int;  (** Fig. 5's "Syscall-Redirect" component *)
  mutable exit_cycles : int;  (** Fig. 5's "Enclave-Exit" component *)
  mutable interrupts_while_inside : int;
}

type t

val create :
  Veil_core.Boot.veil_system ->
  ?heap_pages:int ->
  ?stack_pages:int ->
  binary:bytes ->
  Guest_kernel.Process.t ->
  (t, string) result
(** Install [binary] as an enclave in the process (ioctl to the §7
    kernel module) and finalize it through VeilS-ENC.  Defaults:
    16 heap pages, 4 stack pages. *)

val destroy : t -> (unit, string) result

val system : t -> Veil_core.Boot.veil_system
val proc : t -> Guest_kernel.Process.t
val enclave : t -> Veil_core.Encsvc.enclave
val measurement : t -> bytes
val stats : t -> stats
val inside : t -> bool

val console : t -> int
(** The console fd {!Libc.printf} writes to; -1 until it is opened. *)

val set_console : t -> int -> unit

val run : t -> (t -> 'a) -> 'a
(** Enter the enclave, execute the body, exit.  The body runs at
    Dom_ENC: its memory accesses and ocalls carry enclave costs. *)

val run_on : t -> Sevsnp.Vcpu.t -> (t -> 'a) -> 'a
(** §10 multi-threading: ask VeilS-ENC (through VeilMon) to
    synchronize [vcpu]'s Dom_ENC instance with this enclave, then run
    the body as a thread pinned to that VCPU. *)

val ocall : t -> Guest_kernel.Sysno.t -> Guest_kernel.Ktypes.arg list -> Guest_kernel.Ktypes.ret
(** Redirect a system call to the untrusted application (§6.2): deep
    copy arguments into the shared arena, exit, execute, re-enter,
    copy results back, IAGO-check.  Raises {!Enclave_killed} on an
    SDK-unsupported call. *)

val ocall_batch :
  t -> (Guest_kernel.Sysno.t * Guest_kernel.Ktypes.arg list) list -> Guest_kernel.Ktypes.ret list
(** §10's system-call batching: marshal several redirected calls into
    the arena, pay the two domain switches once, execute the batch in
    the untrusted application, and copy all results back together.
    Calls are executed in order; each is validated and IAGO-checked
    exactly as in {!ocall}.  An unsupported call kills the enclave. *)

val compute : t -> int -> unit
(** Charge enclave computation cycles; periodically takes the timer
    interrupt (relayed to Dom_UNT per §6.2). *)

val malloc : t -> int -> int option
val free : t -> int -> unit

val read_data : t -> va:Sevsnp.Types.va -> len:int -> bytes
(** Read enclave memory through the protected tables (faults on
    evicted pages surface as {!Sevsnp.Platform.Guest_page_fault}). *)

val write_data : t -> va:Sevsnp.Types.va -> bytes -> unit

val heap_base : t -> Sevsnp.Types.va
val enclave_range : t -> Sevsnp.Types.va * Sevsnp.Types.va
