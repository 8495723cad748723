(** SEV-SNP remote attestation (simulated).

    The platform measures the boot image at launch and, on request
    from guest software, produces a signed report carrying the launch
    measurement, the *VMPL of the requester* and caller-chosen report
    data (e.g. a Diffie-Hellman public value).  Signing uses a
    platform Schnorr key standing in for AMD's VCEK chain; a remote
    user verifies against {!platform_public_key}. *)

type report = {
  launch_measurement : bytes;
  requester_vmpl : Types.vmpl;
  report_data : bytes;
  signature : Veil_crypto.Schnorr.signature;
}

type t

val create : Veil_crypto.Rng.t -> t

val platform_public_key : t -> Veil_crypto.Bignum.t

val record_launch : t -> measurement:bytes -> unit
(** Called once by the platform when the boot image is loaded. *)

val launch_measurement : t -> bytes option

val report : t -> requester_vmpl:Types.vmpl -> report_data:bytes -> report
(** Raises [Failure] before [record_launch]. *)

val verify : public_key:Veil_crypto.Bignum.t -> report -> bool
(** Remote-user-side signature check. *)
