(** Exitless system calls (§10, FlexSC-style).

    The paper's other future-work optimization besides batching: the
    enclave posts requests into a ring in the *shared arena* and a
    free kernel worker thread on another VCPU drains them — the
    enclave thread never takes a synchronous exit at all.

    Simulation shape: [submit] marshals into the ring from Dom_ENC
    (deep-copy cost, no switch); [drain_on] runs the kernel worker on
    a (hotplugged) VCPU, executing pending calls and writing results
    back; [poll]/[await] read completions from the ring. *)

type t

val create : Runtime.t -> slots:int -> (t, string) result
(** Carve a request ring out of the runtime's shared arena.  Fails if
    the enclave has no arena or [slots] exceeds its capacity. *)

type ticket

val submit : t -> Guest_kernel.Sysno.t -> Guest_kernel.Ktypes.arg list -> (ticket, string) result
(** Enclave-side, no exit.  [Error] when the ring is full (drain
    first) or the call is SDK-unsupported. *)

type prepared
(** A pre-validated submission (FlexSC registered entry / io_uring
    reusable SQE): spec lookup, sanitizer pass and the arena-crossing
    copy cost are paid once at {!prepare}, so each {!submit_prepared}
    is pure stores + integer math — zero allocation, which bench
    micro's alloc-check asserts. *)

val prepare :
  Guest_kernel.Sysno.t -> Guest_kernel.Ktypes.arg list -> (prepared, string) result

val submit_prepared : t -> prepared -> ticket
(** Raises [Failure] when the ring is full (drain the worker). *)

val cancel : t -> ticket -> unit
(** Withdraw a submitted-but-undrained request; a no-op once the
    worker picked it up.  Lets a benchmark exercise the submit path
    without paying the drain. *)

val poll : t -> ticket -> Guest_kernel.Ktypes.ret option
(** Enclave-side completion check; [None] while pending. *)

val drain_on : t -> Sevsnp.Vcpu.t -> int
(** Kernel worker: execute every pending request on [vcpu] (the
    syscall work is charged there, not to the enclave's VCPU);
    returns the number completed.  Must run while the enclave VCPU is
    inside — that is the whole point. *)

val await : t -> worker:Sevsnp.Vcpu.t -> ticket -> Guest_kernel.Ktypes.ret
(** Convenience: drain on the worker, then read the completion. *)

val pending : t -> int
