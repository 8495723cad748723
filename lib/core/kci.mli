(** VeilS-KCI — kernel code integrity (§6.1).

    Enforces write-xor-supervisor-execute over kernel memory with
    RMPADJUST (so even a kernel that disables its own NX/SMEP cannot
    run injected code), and owns the TOCTOU-free module load path:
    signature verification, copy, relocation against a *protected*
    symbol table, and RMPADJUST write-protection of the installed
    text. *)

type t

type stats = { mutable modules_loaded : int; mutable modules_unloaded : int; mutable rejected : int }

val install :
  Monitor.t -> vendor_public:Veil_crypto.Bignum.t -> symbols:(string * int) list -> t
(** Register the service with VeilMon (dispatched at Dom_SEC).
    [symbols] becomes the protected relocation table. *)

val activate : t -> Sevsnp.Vcpu.t -> unit
(** Apply the W^X sweep to the kernel image: text becomes
    read+supervisor-execute (never writable), data loses supervisor
    execution — permanently, from Dom_UNT's point of view. *)

val active : t -> bool
val stats : t -> stats
