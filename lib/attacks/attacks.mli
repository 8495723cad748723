(** Attack harness (§8).

    Implements every attack of Table 1 (against the framework), Table 2
    (against enclaves) and the two §8.3 validation experiments, each
    launched from the component the paper's threat model grants the
    attacker: a fully compromised OS kernel (arbitrary reads/writes/
    instructions at Dom_UNT), the untrusted hypervisor, or a malicious
    enclave.  Every attack returns an {!outcome} describing how the
    platform stopped it — or [Breached] if it didn't (a test failure). *)

type outcome =
  | Blocked_npf of Sevsnp.Types.npf_info  (** CVM halted with #NPF *)
  | Blocked_error of string  (** architectural error code / refusal *)
  | Blocked_sanitizer of string  (** VeilMon rejected the request *)
  | Blocked_crypto of string  (** attestation / signature / MAC failure *)
  | Breached of string  (** the attack succeeded — protection failed *)

val outcome_to_string : outcome -> string
val is_blocked : outcome -> bool

type t
(** An attack bound to a freshly booted Veil system. *)

val name : t -> string
val description : t -> string

val run : ?chaos:Chaos.Fault_plan.t -> t -> outcome
(** Boots its own guests; safe to run each attack independently.
    [?chaos] is armed on every guest the attack boots (the fleet
    attack arms its own per-guest plans instead); without it the
    guests run disarmed. *)

val framework_attacks : unit -> t list
(** Table 1: boot-time image substitution, trusted-domain read/write,
    RMPADJUST lifting, register state overwrite, page-table overwrite,
    VCPU spawning at trusted domains, IDCB overwrite, malicious OS
    request pointers. *)

val enclave_attacks : unit -> t list
(** Table 2: wrong binary, memory read/write from the OS, physical
    layout modification, VMSA tampering (OS + hypervisor), incorrect
    GHCB mapping, refused interrupt relay, cross-enclave access,
    supervisor execution from Dom_ENC. *)

val validation_attacks : unit -> t list
(** §8.3: overwrite VeilMon-protected page tables; overwrite a loaded
    module's text after disabling the OS's own W^X bits; drop/edit/
    reorder attested Veil-Pulse telemetry in transit (the hash chain
    must pinpoint the manipulation). *)

val fleet_attacks : unit -> t list
(** Fleet scope: a compromised guest kernel inside one tenant of a
    multi-guest host fires malicious request pointers and a direct
    VeilMon read while serving traffic.  Every probe must be blocked,
    and the co-tenants' reports must be byte-identical to a benign run
    of the same fleet. *)

val all : unit -> t list
