(** Veil-Ring: batched os_call submission/completion rings (§10).

    An io_uring-style fixed-slot SPSC ring between the OS and VeilMon.
    Like the per-VCPU IDCBs (§5.2) the ring is carved from the *less
    privileged* party's memory — an OS-owned frame — so both sides can
    access it and the monitor trusts nothing it reads from a slot.

    The OS (single producer: the owning VCPU) submits deferrable
    requests — execute-ahead [R_log_append] records foremost, plus
    [R_pvalidate] page-state batches and [R_pt_sync] — and flushes the
    whole ring through one {!Monitor.os_call_batch}, paying a single
    Monitor+Switch entry for N slots instead of N.

    Replay suppression extends the per-IDCB sequence scheme to
    (batch_seq, slot) granularity: the producer stamps a monotonic
    batch sequence number at flush time, and the monitor serves each
    batch sequence at most once, answering a duplicated relay from the
    cached per-slot responses. *)

type t

val create : gpfn:Sevsnp.Types.gpfn -> vcpu_id:int -> slots:int -> t
(** [slots] must be a power of two in [2, 1024]; [gpfn] is the ring's
    backing frame in OS memory (the monitor re-checks placement at
    {!Monitor.register_ring}). *)

val gpfn : t -> Sevsnp.Types.gpfn
val vcpu_id : t -> int

val pending : t -> int
(** Submitted-but-undrained slot count (head - tail). *)

val is_empty : t -> bool
val is_full : t -> bool

val submit : t -> Idcb.request -> bool
(** Producer side: enqueue a request, returning [false] when the ring
    is full (backpressure — the producer must flush first).  Never
    allocates on the success path. *)

val batch_seq : t -> int
(** Producer-stamped sequence number of the batch currently (or last)
    flushed; bumped by {!stamp_flush}. *)

val stamp_flush : t -> int
(** Producer side, at flush entry: bump and return the batch sequence
    number covering every currently-pending slot. *)

(* Consumer (monitor) side.  Slot indices given to these accessors are
   logical offsets in [0, pending) from the current tail; the ring maps
   them through the wraparound mask internally. *)

val peek : t -> int -> Idcb.request
val set_response : t -> int -> Idcb.response -> unit
val response_at : t -> int -> Idcb.response

val consume : t -> unit
(** Retire every pending slot (the batch was served; responses remain
    readable until the slots are overwritten by later submissions). *)

val corrupt_slot : t -> int -> unit
(** Chaos (ring_slot_corrupt): scribble over a pending slot the way a
    hostile OS or a DMA-capable device could — the ring lives in OS
    memory, so a submitted request can change between submit and
    drain.  The monitor must reject the slot, not trust it. *)

val slot_is_corrupt : t -> int -> bool
(** Consumer-side framing check: a corrupted slot fails its framing
    checksum.  (The simulator models the checksum as a flag; real
    hardware would detect the mismatch when validating slot framing.) *)
