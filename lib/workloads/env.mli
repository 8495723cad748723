(** Execution environment abstraction for workload programs.

    A workload is written once against this interface and then run
    natively (direct syscalls), inside a VeilS-ENC enclave (redirected
    through the SDK), or under auditing — the same program text, three
    of the paper's measurement configurations. *)

type t = {
  sys : Guest_kernel.Sysno.t -> Guest_kernel.Ktypes.arg list -> Guest_kernel.Ktypes.ret;
  compute : int -> unit;  (** charge computation cycles *)
  env_rng : Veil_crypto.Rng.t;
  env_rings : bool;
      (** Veil-Ring opt-in: when true, fire-and-forget monitor traffic
          issued under this environment rides per-VCPU submission rings
          and may be observed late — readers of audit/log state must go
          through a {!Veil_core.Boot.flush_rings} barrier first. *)
}

exception Sys_error of Guest_kernel.Ktypes.errno * string

val fail : Guest_kernel.Ktypes.errno -> string -> 'a

(* Typed wrappers; all raise [Sys_error] on kernel errors. *)

val open_ : t -> string -> flags:int -> mode:int -> int
val close : t -> int -> unit
val read : t -> int -> int -> bytes
val write : t -> int -> bytes -> int
val pread : t -> int -> len:int -> pos:int -> bytes
val pwrite : t -> int -> bytes -> pos:int -> int
val fsync : t -> int -> unit
val unlink : t -> string -> unit
val rename : t -> string -> string -> unit
val mkdir : t -> string -> unit
val stat_size : t -> string -> int
val file_exists : t -> string -> bool
val truncate : t -> string -> int -> unit

val socket : t -> int
val bind : t -> int -> port:int -> unit
val listen : t -> int -> backlog:int -> unit
val accept : t -> int -> int option
(** [None] when no pending connection (EAGAIN). *)

val connect : t -> int -> port:int -> unit
val send : t -> int -> bytes -> int
val recv : t -> int -> int -> bytes option
(** [None] on EAGAIN. *)

val mmap_anon : t -> len:int -> int
val munmap : t -> va:int -> len:int -> unit
val getrandom : t -> int -> bytes
val getpid : t -> int
val console : t -> string -> unit
(** Write a line to /dev/console (opens lazily per call — cheap in the
    simulated tty). *)

val o_rdonly : int
val o_wronly : int
val o_rdwr : int
val o_creat : int
val o_trunc : int
val o_append : int
