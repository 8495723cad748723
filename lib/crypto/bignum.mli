(** Arbitrary-precision unsigned integers.

    Little-endian limb array in base 2^26 so limb products fit in the
    native 63-bit [int].  Provides exactly what the simulated
    attestation / key-exchange / signature stack needs: comparison,
    ring arithmetic, division with remainder, modular exponentiation
    and Miller-Rabin primality.  All values are non-negative;
    subtraction of a larger value raises [Underflow]. *)

type t

exception Underflow
exception Division_by_zero

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] for [n >= 0]. *)

val to_int_opt : t -> int option
(** [Some n] when the value fits in a native [int]. *)

val of_bytes_be : bytes -> t
(** Big-endian byte-string decoding. *)

val to_bytes_be : t -> bytes
(** Minimal-length big-endian encoding ([zero] encodes to one 0 byte). *)

val of_hex : string -> t
val to_hex : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool
val is_odd : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val shift_left : t -> int -> t
val shift_right : t -> int -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r] and [r < b]. *)

val rem : t -> t -> t

val powmod : base:t -> exp:t -> modulus:t -> t
(** Modular exponentiation by square-and-multiply. *)

val invmod : t -> t -> t option
(** [invmod a m] is the inverse of [a] modulo [m] when gcd(a,m)=1. *)

val gcd : t -> t -> t

val is_probably_prime : ?rounds:int -> Rng.t -> t -> bool
(** Miller-Rabin with [rounds] random witnesses (default 20). *)

val random_bits : Rng.t -> int -> t
(** Uniform value with exactly [n] bits (top bit set), [n >= 1]. *)

val random_below : Rng.t -> t -> t
(** Uniform in [0, bound); [bound] must be positive. *)

val pp : Format.formatter -> t -> unit
