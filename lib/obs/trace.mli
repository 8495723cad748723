(** Veil-Trace — cycle-timestamped event tracing for the simulated
    SEV-SNP stack.

    A fixed-capacity ring buffer of typed events, each stamped with the
    owning VCPU's cycle counter and an attribution-bucket name.  The
    tracer is off by default; while disabled, {!emit} returns after a
    single flag test and allocates nothing, so instrumented hot paths
    (guarded with [if Trace.enabled tr then ...]) cost one branch.

    Events carry a Chrome-trace-style phase: instants, paired
    begin/end spans ({!span_begin}/{!span_end}), or complete spans with
    an explicit duration ({!complete}).  The buffer keeps the *newest*
    [capacity] events: once full, each new event overwrites the oldest.

    This module is deliberately free of simulator dependencies — cycle
    values, VCPU ids and VMPL indices arrive as plain ints, and bucket
    attribution as the bucket's name — so every layer (sevsnp,
    hypervisor, kernel, core, workloads) can emit into the same
    stream. *)

type wait_reason =
  | Runqueue  (** runnable but not stepped: sat on a runqueue behind other tasks *)
  | Monitor_serial
      (** queueing delay at the serialized VeilMon slice: a second
          VCPU's os_call arrived while one was being served *)
  | Shootdown_ack  (** TLB-shootdown initiator spinning for remote IPI acks *)
  | Blocked_poll  (** suspended on a [block_until] predicate that polled false *)
  | Relay  (** host-side relay leg of a domain switch (untrusted hypervisor) *)
  | Ring_flush
      (** queueing delay charged to a batched ring flush: the single
          serialized monitor entry that serves every slot of a
          submission ring in one Monitor+Switch leg (Veil-Ring) *)

type kind =
  | Vmgexit  (** world exit; [arg] 0 = VMGEXIT, 1 = automatic exit *)
  | Vmenter  (** re-entry on a VMSA; [vmpl] is the entered instance's *)
  | Domain_switch  (** full relayed switch; complete span, [arg] = target VMPL *)
  | Rmpadjust  (** [arg] = target gpfn *)
  | Pvalidate  (** [arg] = target gpfn *)
  | Npf  (** nested page fault; [arg] = faulting gpfn *)
  | Syscall  (** complete span; [arg] = syscall number *)
  | Enclave_enter
  | Enclave_exit
  | Audit_emit  (** protected audit append; [arg] = record bytes *)
  | Io  (** host I/O request; [arg] = bytes *)
  | Span of string  (** named software span (begin/end paired) *)
  | Wait of wait_reason
      (** wait edge: cycles a request spent *waiting* rather than
          working (complete span; [dur] = the wait) — the raw material
          for {!Critpath} wait-vs-work decomposition *)

type phase = Instant | Begin | End | Complete

type event = {
  ev_kind : kind;
  ev_phase : phase;
  ev_vcpu : int;
  ev_vmpl : int;  (** VMPL index 0-3 of the emitting instance; -1 unknown *)
  ev_ts : int;  (** VCPU cycle counter at emission (span start for Complete) *)
  ev_dur : int;  (** cycles covered; 0 unless [ev_phase = Complete] *)
  ev_bucket : string;  (** attribution bucket name; [""] = none *)
  ev_arg : int;  (** kind-specific detail (gpfn, sysno, bytes, ...) *)
  ev_id : int;  (** causal trace id linking events of one logical request
                    across world switches ({!Profiler.mint}); 0 = none *)
}

type t

val create : ?capacity:int -> unit -> t
(** Fresh tracer, disabled, with room for [capacity] (default 65536,
    clamped to >= 16) events.  The ring itself is allocated by the
    first [set_enabled t true], so a tracer that is never enabled costs
    a few words. *)

val set_enabled : t -> bool -> unit
val enabled : t -> bool

val clear : t -> unit
(** Drop all buffered events (the enabled flag is unchanged). *)

val capacity : t -> int

val emitted : t -> int
(** Events emitted since creation/[clear], including overwritten ones. *)

val stored : t -> int
(** Events currently held: [min (emitted t) (capacity t)]. *)

val dropped : t -> int
(** Events silently overwritten by ring wraparound since
    creation/[clear]: [max 0 (emitted t - capacity t)].  Nonzero means
    {!events} is a truncated window — exporters should say so. *)

val emit :
  t -> ?phase:phase -> ?dur:int -> ?bucket:string -> ?arg:int -> ?id:int ->
  vcpu:int -> vmpl:int -> ts:int -> kind -> unit
(** Record one event.  No-op while disabled.  Hot paths should guard
    the call with {!enabled} so that even the optional-argument boxing
    is skipped. *)

val complete :
  t -> ?bucket:string -> ?arg:int -> ?id:int ->
  vcpu:int -> vmpl:int -> ts:int -> dur:int -> kind -> unit
(** A span known only at its end: [ts] is the start, [dur] its extent. *)

val span_begin :
  t -> ?bucket:string -> ?id:int -> vcpu:int -> vmpl:int -> ts:int -> string -> unit
val span_end : t -> vcpu:int -> vmpl:int -> ts:int -> string -> unit
(** Open/close a named software span.  Pairs nest per-VCPU (LIFO). *)

val events : t -> event list
(** Buffered events in emission order, oldest first.  Emission order is
    timestamp order except for [Complete] spans, which are recorded at
    their end but stamped with their start time (the Chrome exporter
    re-sorts). *)

val count_kind : t -> kind -> int
(** Buffered events of [kind] (spans count Begin and Complete, not End,
    so a begin/end pair counts once). *)

val well_nested : t -> bool
(** Check begin/end discipline per VCPU: every [End] must close the
    most recent unmatched [Begin] of the same name on that VCPU.  An
    [End] whose [Begin] was evicted by ring wraparound is tolerated;
    still-open spans are too. *)

val kind_name : kind -> string
(** Stable lower-case name ("vmgexit", "domain_switch", ...; a [Span]
    reports its own name, a [Wait] reports ["wait.<reason>"]). *)

val wait_reason_name : wait_reason -> string
(** Stable lower-case name ("runqueue", "monitor_serial", ...). *)
