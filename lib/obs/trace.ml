type wait_reason = Runqueue | Monitor_serial | Shootdown_ack | Blocked_poll | Relay | Ring_flush

type kind =
  | Vmgexit
  | Vmenter
  | Domain_switch
  | Rmpadjust
  | Pvalidate
  | Npf
  | Syscall
  | Enclave_enter
  | Enclave_exit
  | Audit_emit
  | Io
  | Span of string
  | Wait of wait_reason

type phase = Instant | Begin | End | Complete

type event = {
  ev_kind : kind;
  ev_phase : phase;
  ev_vcpu : int;
  ev_vmpl : int;
  ev_ts : int;
  ev_dur : int;
  ev_bucket : string;
  ev_arg : int;
  ev_id : int;
}

let dummy =
  { ev_kind = Vmgexit; ev_phase = Instant; ev_vcpu = -1; ev_vmpl = -1; ev_ts = 0; ev_dur = 0;
    ev_bucket = ""; ev_arg = 0; ev_id = 0 }

type t = {
  mutable on : bool;
  cap : int;
  mutable buf : event array;
      (** [[||]] until first enabled: every platform owns a tracer, and
          most never turn it on *)
  mutable total : int;  (** emitted since clear; write cursor = total mod cap *)
}

let create ?(capacity = 65536) () = { on = false; cap = max 16 capacity; buf = [||]; total = 0 }

let set_enabled t b =
  if b && Array.length t.buf = 0 then t.buf <- Array.make t.cap dummy;
  t.on <- b

let enabled t = t.on

let clear t =
  Array.fill t.buf 0 (Array.length t.buf) dummy;
  t.total <- 0

let capacity t = t.cap
let emitted t = t.total
let stored t = min t.total t.cap
let dropped t = max 0 (t.total - t.cap)

let push t ev =
  t.buf.(t.total mod t.cap) <- ev;
  t.total <- t.total + 1

let emit t ?(phase = Instant) ?(dur = 0) ?(bucket = "") ?(arg = 0) ?(id = 0) ~vcpu ~vmpl ~ts kind =
  if t.on then
    push t
      { ev_kind = kind; ev_phase = phase; ev_vcpu = vcpu; ev_vmpl = vmpl; ev_ts = ts; ev_dur = dur;
        ev_bucket = bucket; ev_arg = arg; ev_id = id }

let complete t ?(bucket = "") ?(arg = 0) ?(id = 0) ~vcpu ~vmpl ~ts ~dur kind =
  if t.on then
    push t
      { ev_kind = kind; ev_phase = Complete; ev_vcpu = vcpu; ev_vmpl = vmpl; ev_ts = ts;
        ev_dur = dur; ev_bucket = bucket; ev_arg = arg; ev_id = id }

let span_begin t ?(bucket = "") ?(id = 0) ~vcpu ~vmpl ~ts name =
  if t.on then
    push t
      { ev_kind = Span name; ev_phase = Begin; ev_vcpu = vcpu; ev_vmpl = vmpl; ev_ts = ts;
        ev_dur = 0; ev_bucket = bucket; ev_arg = 0; ev_id = id }

let span_end t ~vcpu ~vmpl ~ts name =
  if t.on then
    push t
      { ev_kind = Span name; ev_phase = End; ev_vcpu = vcpu; ev_vmpl = vmpl; ev_ts = ts; ev_dur = 0;
        ev_bucket = ""; ev_arg = 0; ev_id = 0 }

let events t =
  let n = stored t in
  let first = t.total - n in
  List.init n (fun i -> t.buf.((first + i) mod t.cap))

let count_kind t kind =
  List.fold_left
    (fun acc ev -> if ev.ev_kind = kind && ev.ev_phase <> End then acc + 1 else acc)
    0 (events t)

let well_nested t =
  (* One open-span stack per VCPU.  An End closing an empty stack is
     tolerated (its Begin may have been evicted by wraparound). *)
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 8 in
  let ok = ref true in
  List.iter
    (fun ev ->
      match (ev.ev_kind, ev.ev_phase) with
      | Span name, Begin ->
          let st = Option.value ~default:[] (Hashtbl.find_opt stacks ev.ev_vcpu) in
          Hashtbl.replace stacks ev.ev_vcpu (name :: st)
      | Span name, End -> (
          match Hashtbl.find_opt stacks ev.ev_vcpu with
          | Some (top :: rest) ->
              if top <> name then ok := false else Hashtbl.replace stacks ev.ev_vcpu rest
          | Some [] | None -> ())
      | _ -> ())
    (events t);
  !ok

let wait_reason_name = function
  | Runqueue -> "runqueue"
  | Monitor_serial -> "monitor_serial"
  | Shootdown_ack -> "shootdown_ack"
  | Blocked_poll -> "blocked_poll"
  | Relay -> "relay"
  | Ring_flush -> "ring_flush"

let kind_name = function
  | Vmgexit -> "vmgexit"
  | Vmenter -> "vmenter"
  | Domain_switch -> "domain_switch"
  | Rmpadjust -> "rmpadjust"
  | Pvalidate -> "pvalidate"
  | Npf -> "npf"
  | Syscall -> "syscall"
  | Enclave_enter -> "enclave_enter"
  | Enclave_exit -> "enclave_exit"
  | Audit_emit -> "audit_emit"
  | Io -> "io"
  | Span s -> s
  | Wait Runqueue -> "wait.runqueue"
  | Wait Monitor_serial -> "wait.monitor_serial"
  | Wait Shootdown_ack -> "wait.shootdown_ack"
  | Wait Blocked_poll -> "wait.blocked_poll"
  | Wait Relay -> "wait.relay"
  | Wait Ring_flush -> "wait.ring_flush"
