(** A Schnorr group: prime modulus [p = 2q + 1] with prime order-[q]
    subgroup generator [g].

    Shared by the Diffie-Hellman key exchange ([Dh]) and the signature
    scheme ([Schnorr]).  The default group is the one generated
    from a fixed seed — the simulation needs algebraic correctness,
    not cryptographic key sizes. *)

type t = private { p : Bignum.t; q : Bignum.t; g : Bignum.t }

val generate : ?bits:int -> Rng.t -> t
(** Find a safe prime of [bits] bits (default 96) and a generator of the
    order-q subgroup. *)

val default : unit -> t
(** The process-wide simulation group: the one [generate] finds from
    seed [0x5EC0DE], precomputed.  Safe to call from any domain. *)

val element_of_bytes : t -> bytes -> Bignum.t
(** Hash a byte string into the exponent range [1, q). *)
