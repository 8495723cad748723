(** RMP per-VMPL access permissions.

    SEV-SNP tracks, for every guest page and every VMPL, whether the
    page may be read, written, executed in user mode, or executed in
    supervisor mode (APM vol. 2 §15.36.7). *)

type t = { read : bool; write : bool; user_exec : bool; super_exec : bool }

val none : t
val all : t

val rw : t
(** Read + write, no execute. *)

val rx : t
(** Read + both execute kinds, no write — kernel-text W^X shape. *)

val r_user_exec : t
(** Read + user execute only — enclave-text shape. *)

val allows : t -> Types.access -> Types.cpl -> bool
(** [allows t access cpl]: does [t] permit [access]?  [Execute] is
    checked against [user_exec] or [super_exec] depending on [cpl]. *)

val to_bits : t -> int
(** Pack into a 4-bit vector (read=1, write=2, user_exec=4,
    super_exec=8) — the RMP's dense per-VMPL storage format. *)

val of_bits : int -> t

val bits_allow : int -> Types.access -> Types.cpl -> bool
(** {!allows} on the packed form; allocation-free, used by the
    checked-access hot path. *)

val subset : t -> t -> bool
(** [subset a b]: every right in [a] is also in [b]. *)

val union : t -> t -> t
val inter : t -> t -> t

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
