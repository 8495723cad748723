(** VeilMon — the Dom_MON security monitor (§5).

    Boots at VMPL-0 in place of the kernel, protects its own and the
    services' memory with RMPADJUST, replicates every VCPU into one
    instance per domain (§5.2), mediates the architecturally-restricted
    kernel functionality (§5.3), and routes sanitized OS requests to
    the protected services over per-VCPU IDCBs. *)

type t

type stats = {
  mutable os_calls : int;  (** OS → trusted-domain round trips *)
  mutable delegated_pvalidates : int;
  mutable delegated_vcpu_boots : int;
  mutable sanitizer_rejections : int;
}

val create : hv:Hypervisor.Hv.t -> layout:Layout.t -> boot_vcpu:Sevsnp.Vcpu.t -> t
(** Construct on the boot VCPU (must be running the VMPL-0 launch
    instance).  Call {!initialize} to run the protection sweep. *)

val initialize : t -> kernel_entry:int -> unit
(** Veil's boot-time work (§5.1-5.2, measured by experiment E1):
    PVALIDATE every guest frame, RMPADJUST the whole address space
    into the domain policy, create the per-domain VCPU replicas and
    install hypervisor policies. *)

val platform : t -> Sevsnp.Platform.t
val hv : t -> Hypervisor.Hv.t
val layout : t -> Layout.t
val stats : t -> stats
val boot_vcpu : t -> Sevsnp.Vcpu.t

val vmsa_of : t -> vcpu_id:int -> dom:Privdom.t -> Sevsnp.Vmsa.t
(** The replica instance for a (VCPU, domain); raises if missing. *)

val idcb_of : t -> vcpu_id:int -> Idcb.t

(* Protected-region registry & sanitization (§8.1) *)

val add_protected_frames : t -> owner:Privdom.t -> Sevsnp.Types.gpfn list -> unit
val remove_protected_frames : t -> Sevsnp.Types.gpfn list -> unit
val frame_is_protected : t -> Sevsnp.Types.gpfn -> bool

(* Service plumbing *)

type handler = t -> Sevsnp.Vcpu.t -> Idcb.request -> Idcb.response option
(** Services return [Some response] for requests they own. *)

val register_service : t -> name:string -> target:Privdom.t -> handler -> unit
(** [target] is the domain the request is dispatched in (services run
    at Dom_SEC; delegated VMPL-0 work at Dom_MON). *)

val os_call : t -> Sevsnp.Vcpu.t -> Idcb.request -> Idcb.response
(** The full §5.2 path: the OS stamps the IDCB with the next request
    sequence number, requests a hypervisor-relayed switch to the
    serving domain, the request is sanitized and dispatched (at most
    once per sequence — see {!serve_pending}), and the VCPU switches
    back.  Charges both switch costs and the IDCB copies. *)

type wait_stats = {
  ws_entries : int;  (** os_calls through the ledger *)
  ws_busy_cycles : int;  (** summed Monitor+Switch service cycles *)
  ws_queued_cycles : int;  (** summed queueing delay (the serialized slice) *)
  ws_by_type : (string * int * int * int) list;
      (** (call type, entries, busy, queued), request tags with traffic only *)
}
(** Veil-Scope serialized-monitor entry ledger: the monitor modelled as
    a single-server queue on the machine clock — the furthest-ahead
    VCPU's rdtsc relative to the last {!reset_wait_ledger} window
    start.  An os_call arriving before the previous service's end is
    queued for the difference — the direct measurement of the
    serialized VeilMon slice that E-scale's hw-amdahl column infers.
    At 1 VCPU queueing is identically zero.  Always on: plain int
    bookkeeping, no allocation, no cycle charges. *)

val wait_stats : t -> wait_stats

val reset_wait_ledger : t -> unit
(** Zero the ledger (measurement windows; boot traffic excluded). *)

val serve_pending : t -> Sevsnp.Vcpu.t -> Idcb.response
(** Trusted-domain service of the request currently in the VCPU's
    IDCB.  Each IDCB sequence number is served at most once: a
    duplicated/replayed relay returns the cached response (counted
    under ["monitor.replays_suppressed"]) instead of re-executing a
    state-mutating request. *)

val weaken_replay_guard_for_test : t -> unit
(** TEST-ONLY.  Disable the IDCB and ring replay caches so a
    duplicated/replayed relay re-executes its request.  Used by
    Veil-Explore's weakened-guard scenario to demonstrate end-to-end
    detect → minimize → replay of the silent double execution the
    guard normally prevents.  Never call this outside a test or an
    explore scenario marked weakened. *)

(* Veil-Ring: batched submission/completion rings *)

val register_ring : t -> Ring.t -> (unit, string) result
(** Accept a per-VCPU submission ring.  Placement is checked like an
    IDCB's (§5.2): the backing frame must be OS-writable private guest
    memory and must not alias any protected region.  One ring per
    VCPU; re-registration replaces. *)

val ring_of : t -> vcpu_id:int -> Ring.t option

val ring_submit : t -> Sevsnp.Vcpu.t -> Ring.t -> Idcb.request -> bool
(** Producer side: enqueue a deferrable request, charging the slot
    copy the IDCB write would have paid.  [false] = ring full
    (backpressure — flush first). *)

val os_call_batch : t -> Sevsnp.Vcpu.t -> Ring.t -> int
(** Flush every pending slot through ONE Monitor+Switch entry: stamp
    the batch sequence, switch to the serving domain (Dom_MON if any
    slot is VMPL-0-delegated, else Dom_SEC), sanitize and dispatch
    each slot ({!serve_batch}), switch back, and retire the slots.
    Accounted in the wait ledger as a single entry under the
    ["ring_flush"] tag.  Returns the number of slots served; 0 for an
    empty ring (no switch paid). *)

val serve_batch : t -> Sevsnp.Vcpu.t -> Ring.t -> int
(** Trusted-domain half of a flush, exposed for replay testing: serves
    each pending slot at most once per batch sequence.  A duplicated
    relay of an already-served batch returns the cached per-slot
    responses (counted per slot under ["monitor.replays_suppressed"]).
    A slot that fails its framing check (ring_slot_corrupt chaos) is
    rejected and journaled under ["monitor.ring_slot_rejected"]
    without poisoning the rest of the batch. *)

val domain_switch : t -> Sevsnp.Vcpu.t -> target:Privdom.t -> unit
(** Raw hypervisor-relayed switch (used by services and the enclave
    runtime); current instance's GHCB must permit it.  The switch is
    verified: if the hypervisor did not actually enter the target
    instance it is re-requested with cycle-accounted backoff
    (["monitor.switch_retries"]), and a persistent refusal halts the
    CVM explicitly. *)

(* Monitor-side primitives for services *)

val mon_rmpadjust :
  t ->
  Sevsnp.Vcpu.t ->
  gpfn:Sevsnp.Types.gpfn ->
  target:Privdom.t ->
  perms:Sevsnp.Perm.t ->
  (unit, string) result
(** RMPADJUST with bounded retry: architecturally transient failures
    (FAIL_INUSE) are re-attempted up to a fixed budget with
    exponential cycle-accounted backoff (["monitor.insn_retries"])
    before surfacing an explicit [Error]. *)

val alloc_svc_frame : t -> Sevsnp.Types.gpfn

val free_svc_frame : t -> Sevsnp.Types.gpfn -> unit
(** Return a Dom_SEC frame (e.g. a destroyed enclave's page-table
    clone) to the service heap. *)

val set_enclave_ghcb_policy : t -> Sevsnp.Vcpu.t -> ghcb_gpfn:Sevsnp.Types.gpfn -> unit
(** Instruct the hypervisor that this (user-mapped) GHCB may only
    switch between Dom_UNT and Dom_ENC (§6.2). *)

(* Attestation / secure channel (§5.1) *)

val dh_public : t -> Veil_crypto.Bignum.t
val attestation_report : t -> Sevsnp.Vcpu.t -> nonce:bytes -> Sevsnp.Attestation.report
(** Report with [report_data = H(nonce || dh_public)], requested from
    Dom_MON so the report carries VMPL-0. *)

val session_key_with : t -> peer_public:Veil_crypto.Bignum.t -> bytes
