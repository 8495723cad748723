(** Hardware page-table format and walker.

    Three levels of 512 8-byte entries (a 39-bit virtual address
    space), stored in guest-physical pages exactly as the MMU would
    read them.  Software builds and edits tables through an [io]
    record so the caller chooses *checked* access (an OS editing its
    own tables through {!Platform}, subject to VMPL permissions — the
    §8.3 validation attack path) or *raw* access (the hardware walker,
    or VeilMon operating on frames it owns). *)

type flags = { present : bool; writable : bool; user : bool; nx : bool }

val kernel_rw : flags
val user_rw : flags
val user_ro : flags

type pte = { pte_gpfn : Types.gpfn; pte_flags : flags }

val encode : pte -> int
val decode : int -> pte option
(** [None] when the present bit is clear. *)

type io = {
  read_u64 : Types.gpa -> int;
  write_u64 : Types.gpa -> int -> unit;
  alloc_frame : unit -> Types.gpfn;  (** zeroed frame for a new table *)
  invalidate : unit -> unit;
      (** TLB shootdown: called after any leaf edit ({!map}, a
          successful {!unmap} / {!protect}) so cached translations of
          the edited mapping die.  Wire to {!Platform.tlb_shootdown}
          (or a no-op for tables never consulted through a TLB). *)
}

val levels : int
val max_va : Types.va

val index : level:int -> Types.va -> int
(** Table index of [va] at [level] (2 = root, 0 = leaf). *)

val map : io -> root:Types.gpfn -> Types.va -> pte -> unit
(** Install a leaf mapping, allocating intermediate tables as needed.
    Intermediate entries are created writable+user; leaf flags come
    from [pte]. *)

val unmap : io -> root:Types.gpfn -> Types.va -> bool
(** Clear the leaf entry; false when nothing was mapped. *)

val protect : io -> root:Types.gpfn -> Types.va -> flags -> bool
(** Rewrite the leaf flags, keeping the frame; false if unmapped. *)

val walk : read_u64:(Types.gpa -> int) -> root:Types.gpfn -> Types.va -> pte option
(** The MMU's translation: raw reads, no VMPL checks. *)

val iter_leaves : read_u64:(Types.gpa -> int) -> root:Types.gpfn -> (Types.va -> pte -> unit) -> unit
(** Visit every present leaf mapping in VA order. *)

val table_frames : read_u64:(Types.gpa -> int) -> root:Types.gpfn -> Types.gpfn list
(** All frames used by the table structure itself (root included),
    which VeilS-ENC must protect when cloning enclave tables. *)
