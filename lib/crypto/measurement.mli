(** Ordered measurement accumulator.

    Builds the SHA-256 measurements the paper relies on: the CVM boot
    image launch digest (§5.1) and the per-enclave measurement over
    page contents *and* metadata such as permissions (§6.2).  Items
    are length-prefixed and domain-tagged so distinct structures can
    never collide byte-wise. *)

type t

val create : domain:string -> t
(** [domain] separates measurement kinds (e.g. "cvm-launch",
    "veil-enclave"). *)

val add_bytes : t -> label:string -> bytes -> unit
val add_string : t -> label:string -> string -> unit
val add_int : t -> label:string -> int -> unit

val digest : t -> bytes
(** 32-byte final measurement.  The accumulator must not be reused. *)
