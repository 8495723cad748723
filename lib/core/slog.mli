(** VeilS-LOG — tamper-proof system audit logs (§6.3).

    Keeps kaudit records in an append-only store inside the Dom_SEC
    reserved log region, written *before* the audited event executes
    (execute-ahead — the kernel hook fires from [Audit.emit]).  Entries
    are hash-chained so any after-the-fact modification of retrieved logs is
    evident; a remote user retrieves and clears the store over
    VeilMon's authenticated channel. *)

type t

type stats = {
  mutable appended : int;
  mutable dropped_full : int;  (** appends refused because the region filled up *)
  mutable fetches : int;
}

val install : Monitor.t -> t
(** Register with VeilMon; storage is the layout's [log_region]. *)

val stats : t -> stats
val capacity_bytes : t -> int
val used_bytes : t -> int
val count : t -> int

val read_all : t -> string list
(** Trusted-side read of all stored lines (oldest first) — what the
    remote user receives over the secure channel. *)

val chain_digest : t -> bytes
(** Running SHA-256 hash chain over every appended line. *)

val extend_chain : Veil_crypto.Sha256.ctx -> bytes -> string -> bytes
(** [extend_chain ctx prev line] is one chain step, SHA-256(prev ||
    line), computed on [ctx] after resetting it: the new 32-byte head
    is its only allocation. *)

val verify_chain : lines:string list -> digest:bytes -> bool
(** Remote-side check that [lines] reproduce [digest], on one context
    for the whole list. *)

val clear : t -> unit
(** Remote-user-initiated reset after retrieval (§6.3).  Also drains
    the degraded-mode pending buffer into the freshly-cleared region
    (oldest first), leaving ["slog.degraded"] at 0 when it empties. *)

val degraded : t -> bool
(** True while the service is in graceful-degradation mode: the region
    filled up, so appends are being parked in a bounded retry buffer
    (and answered with an explicit error) instead of crashing.
    Mirrored by the ["slog.degraded"] registry gauge. *)

val pending_count : t -> int
(** Records currently parked in the degraded-mode retry buffer. *)
