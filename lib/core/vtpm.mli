(** VeilS-TPM — a virtual TPM as a fourth protected service.

    The paper argues any critical service can be protected by the
    framework (§6), and names AMD's SVSM — whose flagship payload is a
    virtual TPM for CVMs — as the natural integration target (§11).
    This service demonstrates both: PCR banks live in Dom_SEC memory
    the OS can extend (through the IDCB path) but never rewrite, and
    quotes are signed with a service key whose public half a remote
    user learns over VeilMon's attested channel. *)

type t

val install : Monitor.t -> t
(** Register with VeilMon; PCR storage comes from the Dom_SEC heap. *)

val pcr_value : t -> int -> bytes
(** Trusted-side read of a PCR (32 bytes). *)

val extends_count : t -> int

val quote_public_key : t -> Veil_crypto.Bignum.t
(** Verification key for quotes (distributed over the secure channel). *)

type quote = {
  q_pcrs : bytes array;
  q_nonce : bytes;
  q_signature : Veil_crypto.Schnorr.signature;
}

val quote_of_bytes : bytes -> quote option
val verify_quote : public:Veil_crypto.Bignum.t -> quote -> bool
(** Check the signature over (PCR values, nonce). *)

val expected_pcr : events:bytes list -> bytes
(** Remote-side replay of an event log: fold SHA-256 extends over a
    zero PCR. *)
