(** SHA-256 (FIPS 180-4).

    Used for CVM launch measurements, enclave measurements, page
    integrity hashes and as the compression function behind [Hmac]
    and the signature stack. *)

type ctx

val init : unit -> ctx
val update : ctx -> bytes -> unit
val update_string : ctx -> string -> unit
val finalize : ctx -> bytes
(** 32-byte digest, padded in the context's own block buffer: the
    digest is the only allocation.  Afterwards the context must be
    {!reset} before it digests another message. *)

val reset : ctx -> unit
(** Return a context to the initial hash value with nothing fed, as
    {!init} would, without allocating.  A caller that digests many
    short messages (VeilS-LOG's chain step) keeps one context and
    resets it per message. *)

val digest_bytes : bytes -> bytes
val digest_string : string -> bytes

val hex_of_digest : bytes -> string
(** Lowercase hex rendering of a digest (or any byte string). *)
