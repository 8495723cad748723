(** Guest-physical memory.

    Sparse: the address space is carved into 256 KiB chunks
    materialized on first write, so that a 2 GB guest costs little
    until pages are used while keeping accesses a flat array load plus
    a blit.  This module performs no permission checking — that is
    {!Rmp} / {!Platform} territory; it is the raw encrypted DRAM of
    the CVM.

    Chunks can be shared between instances ({!detach} / {!attach}):
    a shared chunk is read in place and copied on its first write, by
    any writer, so no instance ever sees another's writes. *)

type t

val create : npages:int -> t

val npages : t -> int
val bytes_size : t -> int

val valid_gpa : t -> Types.gpa -> bool

val read : t -> Types.gpa -> int -> bytes
(** [read t gpa len] copies [len] bytes.  Raises [Invalid_argument] on
    out-of-range access. *)

val write : t -> Types.gpa -> bytes -> unit

val read_into : t -> Types.gpa -> bytes -> int -> int -> unit
(** [read_into t gpa buf pos len] copies into a caller-provided buffer
    — the allocation-free form of {!read}. *)

val write_sub : t -> Types.gpa -> bytes -> int -> int -> unit
(** [write_sub t gpa data pos len] writes a slice of [data] without
    the [Bytes.sub] copy. *)

val read_byte : t -> Types.gpa -> int
val write_byte : t -> Types.gpa -> int -> unit

val flip_bit : t -> Types.gpa -> int -> unit
(** [flip_bit t gpa bit] XORs one bit ([bit land 7]) of the addressed
    byte — Veil-Chaos's shared-page disturbance primitive.  Callers
    must only aim it at [Shared] frames. *)

val read_u64 : t -> Types.gpa -> int
(** Little-endian 8-byte load truncated to OCaml's 63-bit int (the
    simulator never uses the top bit).  Allocation-free. *)

val write_u64 : t -> Types.gpa -> int -> unit

val zero_page : t -> Types.gpfn -> unit
(** Zero one frame; a no-op on an unmaterialized chunk. *)

val page_is_materialized : t -> Types.gpfn -> bool
(** True when the frame has been written to (used by tests and by the
    boot-cost model to distinguish touched pages). *)

val detach : t -> bytes array
(** Move the chunks out: returns them (empty slots as zero-length
    bytes) and leaves [t] with every chunk unmaterialized and no
    shared flag set, so [t] marshals without its memory.  The
    returned chunks must no longer be written. *)

val attach : t -> bytes array -> unit
(** Install {!detach}ed chunks, of the same instance shape, into every
    slot they materialize, as shared chunks: [t] reads them in place
    and copies each on its first write, so any number of instances
    can attach one array. *)
