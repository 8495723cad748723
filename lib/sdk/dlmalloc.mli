(** In-enclave heap allocator (dlmalloc-style, §7).

    First-fit over an address-ordered free list with splitting and
    coalescing on free — operating on the enclave's heap virtual
    range.  Metadata lives outside enclave memory in this simulation;
    the allocation *addresses* are real enclave VAs. *)

type t

val create : base:int -> size:int -> t
(** Manage [size] bytes starting at virtual address [base]. *)

val malloc : t -> int -> int option
(** 16-byte-aligned allocation; [None] when out of memory. *)

val free : t -> int -> unit
(** Raises [Invalid_argument] on a pointer not returned by [malloc]
    (double free or wild free). *)

val block_size : t -> int -> int option
(** Size of the live block at an address, if any. *)

val check_invariants : t -> bool
(** Free list sorted, non-overlapping, coalesced; live and free blocks
    tile the arena.  Used by property tests. *)
