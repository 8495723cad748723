(** Virtual Machine Save Area.

    One per (VCPU instance, domain): holds the full architectural
    register state that the hardware saves on VMGEXIT and restores on
    VMENTER.  A VMSA's VMPL is assigned at creation and is immutable
    for the VCPU instance's lifetime — the property Veil's VCPU
    replication design (§5.2) is built around. *)

type t = {
  vcpu_id : int;
  vmpl : Types.vmpl;  (** fixed at creation *)
  backing_gpfn : Types.gpfn;  (** the guest frame holding this VMSA *)
  mutable cpl : Types.cpl;
  mutable rip : int;
  mutable rsp : int;
  mutable cr3 : Types.gpfn;  (** page-table root frame *)
  gprs : int array;  (** 16 general-purpose registers *)
  mutable ghcb_gpa : Types.gpa;  (** the GHCB MSR value for this context *)
}

val create : vcpu_id:int -> vmpl:Types.vmpl -> backing_gpfn:Types.gpfn -> t

val pp : Format.formatter -> t -> unit
