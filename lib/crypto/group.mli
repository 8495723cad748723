(** A Schnorr group: prime modulus [p = 2q + 1] with prime order-[q]
    subgroup generator [g].

    Shared by the Diffie-Hellman key exchange ([Dh]) and the signature
    scheme ([Schnorr]).  The default group is generated once,
    deterministically, from a fixed seed — the simulation needs
    algebraic correctness, not cryptographic key sizes. *)

type t = private { p : Bignum.t; q : Bignum.t; g : Bignum.t }

val generate : ?bits:int -> Rng.t -> t
(** Find a safe prime of [bits] bits (default 96) and a generator of the
    order-q subgroup. *)

val default : unit -> t
(** The lazily generated, process-wide simulation group.  Safe to call
    from any domain: the first call builds it, concurrent callers wait
    for that build. *)

val element_of_bytes : t -> bytes -> Bignum.t
(** Hash a byte string into the exponent range [1, q). *)
