(** Remote-user secure channel (§5.1).

    Models the user side of Veil's attestation-rooted channel: verify
    a signed SEV-SNP report (launch measurement + requester VMPL +
    bound DH public value), derive a session key, and exchange
    sealed messages with VeilMon — e.g. to retrieve VeilS-LOG's
    hash-chained logs or an enclave measurement. *)

type t

type error =
  | Disconnected
      (** No live session — never connected, {!disconnect}ed, or the
          guest restarted underneath the user.  The only *retryable*
          error: re-run {!connect} (re-attesting the guest) and repeat
          the request. *)
  | Attestation of string  (** handshake refused: wrong platform or boot image *)
  | Tampering of string  (** seal/MAC/hash-chain verification failed in transit *)
  | Rejected of string  (** the remote end refused the request *)

val error_to_string : error -> string

val retryable : error -> bool
(** [true] only for {!Disconnected}: reconnect-and-retry is sound
    there and only there — attestation refusals and detected
    tampering must surface, not loop. *)

val create :
  Veil_crypto.Rng.t ->
  platform_public:Veil_crypto.Bignum.t ->
  expected_launch:bytes option ->
  t
(** [expected_launch] is the known-good boot-image measurement; [None]
    accepts any (trust-on-first-use, used by tests). *)

val connect : t -> Monitor.t -> Sevsnp.Vcpu.t -> (unit, error) result
(** Run the attestation handshake: nonce, signed report from VMPL-0,
    launch-measurement check, DH key agreement.  Also the reconnect
    path after {!disconnect} or a guest restart: point it at the new
    monitor/VCPU and a fresh session is derived (the old one is
    useless by design — keys are per-handshake). *)

val connected : t -> bool

val disconnect : t -> unit
(** Drop the session (fleet teardown, guest restart).  Subsequent
    sealed operations fail with {!Disconnected} until {!connect}
    succeeds again. *)

(* Sealed messages (shared by both endpoints) *)

val seal : key:bytes -> seq:int -> dir:int -> bytes -> bytes
(** ChaCha20 + HMAC-SHA256 envelope; [dir] separates the two
    directions' nonce spaces. *)

val open_ : key:bytes -> seq:int -> dir:int -> bytes -> (bytes, string) result

(* High-level user operations *)

val fetch_logs : t -> Slog.t -> Sevsnp.Vcpu.t -> (string list, error) result
(** Retrieve all protected log lines over the channel and verify the
    hash chain; does not clear the store. *)
