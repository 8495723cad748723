(** HMAC-SHA256 (RFC 2104).

    Used to authenticate the VeilS-LOG retrieval channel and to key the
    per-enclave page-swap integrity hashes. *)

val mac : key:bytes -> bytes -> bytes
(** 32-byte authentication tag. *)

val verify : key:bytes -> msg:bytes -> tag:bytes -> bool
(** Constant-shape comparison of a recomputed tag against [tag]. *)
