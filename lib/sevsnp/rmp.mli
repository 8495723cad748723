(** Reverse Map (RMP) table.

    One entry per guest-physical frame, tracking the SEV-SNP page
    state, the VMSA attribute and the per-VMPL access permissions that
    [RMPADJUST] manipulates.  The RMP is hardware state: guest software
    only reaches it through {!Platform.rmpadjust} /
    {!Platform.pvalidate}, the hypervisor through the [hv_*]
    operations (standing in for RMPUPDATE).

    Storage is dense — a metadata byte per frame plus packed
    per-VMPL permission nibbles — so {!check_guest_access} is array
    loads and bit tests with no allocation on the permitted path. *)

type page_state =
  | Invalid  (** not validated; any guest access faults *)
  | Private  (** validated, encrypted guest memory *)
  | Shared  (** unencrypted, host-visible (GHCBs, bounce buffers) *)

type entry = {
  state : page_state;
  vmsa : bool;
  touched : bool;  (** frame contents already pulled into cache by a prior RMPADJUST *)
  perms : Perm.t array;  (** indexed by VMPL *)
}
(** Immutable snapshot of one frame's RMP state (see {!iter_entries}).
    Mutation goes through {!validate} / {!adjust} / {!set_vmsa} so the
    TLB generation can never be bypassed. *)

type t

val create : npages:int -> t

val npages : t -> int

val generation : t -> int ref
(** The machine-wide TLB generation counter.  Every mutation in this
    module bumps it; {!Platform} bumps it for page-table edits
    (shootdowns).  Software TLBs ({!Tlb}) stamp entries with it, so
    incrementing invalidates every cached translation. *)

val state : t -> Types.gpfn -> page_state
val perms_of : t -> Types.gpfn -> Types.vmpl -> Perm.t
val is_vmsa : t -> Types.gpfn -> bool

val set_vmsa : t -> Types.gpfn -> bool -> unit
(** Hypervisor-side (RMPUPDATE-style) VMSA-attribute flip used at
    launch; guest software goes through {!adjust}. *)

val touch : t -> Types.gpfn -> bool
(** Record the RMPADJUST page-touch; true when the frame was cold
    (first touch, which costs extra cycles architecturally). *)

val validate : t -> Types.gpfn -> unit
(** PVALIDATE effect: [Invalid] or [Shared] frame becomes [Private]
    with full VMPL-0 permissions and no lower-VMPL permissions. *)

val unvalidate : t -> Types.gpfn -> unit
(** Transition to [Shared] (guest gave the page back to the host). *)

val adjust :
  t -> caller:Types.vmpl -> gpfn:Types.gpfn -> target:Types.vmpl -> perms:Perm.t -> vmsa:bool -> (unit, string) result
(** RMPADJUST semantics: the caller must be strictly more privileged
    than [target]; the frame must be [Private].  On success sets
    [target]'s permissions and the VMSA attribute. *)

val check_guest_access :
  t -> gpfn:Types.gpfn -> vmpl:Types.vmpl -> cpl:Types.cpl -> access:Types.access -> (unit, Types.npf_info) result
(** The hardware page-access check (table walk already done).  VMSA
    frames are never writable from guest software except by VMPL-0
    (initialization). *)

val tlb_snapshot : t -> Types.gpfn -> vmpl:Types.vmpl -> int
(** Packed permission snapshot a TLB entry caches alongside the
    translation: bits 0-3 the [vmpl] permission nibble, bit 4 shared,
    bit 5 VMSA.  Evaluated on hits by {!Tlb.lookup}; stays
    coherent because every RMP mutation bumps {!generation}. *)

val host_can_access : t -> Types.gpfn -> bool
(** The host may only touch [Shared] frames. *)

val guest_can_rw : t -> Types.gpfn -> vmpl:Types.vmpl -> bool
(** Shared-mailbox placement check (IDCBs, Veil-Ring submission
    rings): true when the frame is validated [Private] guest memory
    (not a VMSA, not host-shared) that [vmpl] can both read and
    write — the §5.2 "less privileged party's memory" rule. *)

val iter_entries : t -> (Types.gpfn -> entry -> unit) -> unit
(** Iterate (in frame order) over frames whose RMP state differs from
    the reset state, presenting each as an immutable {!entry}
    snapshot. *)
