(** Per-VCPU software TLB.

    Direct-mapped translation cache in front of the software page walk
    + RMP check, mirroring how SEV-SNP hardware caches both the
    translation and the RMP check result and requires explicit
    invalidation on PVALIDATE / RMPADJUST / PTE edits / VMPL switches.
    Its 512 slots live in one flat byte slab, so a marshalled TLB is a
    single block.

    Validity is by generation stamping: an entry is live only while
    its stamp is [!gen + epoch], where [gen] is the machine-wide TLB
    generation ({!Rmp.generation}, bumped by every RMP mutation and
    every page-table shootdown) and [epoch] is this VCPU's private
    flush counter (bumped by {!flush} on instance switches).  Both
    counters only grow, so any bump strictly increases the sum and
    invalidates every cached entry at once — there is no per-entry
    sweep on the invalidation path. *)

type t

val create : gen:int ref -> t
(** [gen] is the shared machine-wide generation ref
    ({!Rmp.generation} of the platform's RMP). *)

val flush : t -> unit
(** Invalidate everything this VCPU cached (VMPL/instance switch). *)

val lookup : t -> vapage:int -> root:int -> Types.access -> Types.cpl -> Types.vmpl -> int
(** The cached frame of ([vapage], [root]) when the entry is live and
    its flags and RMP snapshot permit the access under the caller's
    current CPL and VMPL, else [-1].  Shared pages never execute and
    in-use VMSA frames reject non-VMPL-0 writes.  Allocation-free. *)

val fill : t -> vapage:int -> root:int -> gpfn:int -> flags:int -> rmp:int -> unit
(** Cache a translation ([gpfn >= 0]) with its {!pack_flags} leaf
    flags and {!Rmp.tlb_snapshot} bits, stamped with the current
    generation, over whatever occupied its slot. *)

val pack_flags : Pagetable.flags -> int
(** Leaf flags in [fill] form: writable=1, user=2, nx=4. *)
