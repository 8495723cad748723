module T = Sevsnp.Types
module P = Sevsnp.Platform
module K = Guest_kernel.Kernel

type veil_system = {
  platform : P.t;
  hv : Hypervisor.Hv.t;
  mon : Monitor.t;
  kernel : K.t;
  kci : Kci.t;
  slog : Slog.t;
  enc : Encsvc.t;
  vtpm : Vtpm.t;
  vcpu : Sevsnp.Vcpu.t;
  layout : Layout.t;
  boot_cycles : int;
}

type native_system = {
  n_platform : P.t;
  n_hv : Hypervisor.Hv.t;
  n_kernel : K.t;
  n_vcpu : Sevsnp.Vcpu.t;
  n_boot_cycles : int;
}

let default_npages = 8192

(* Deterministic boot-image bytes so the launch measurement is stable
   for a given seed (remote attestation checks depend on this). *)
let image_segment ~seed ~which (r : Layout.region) =
  let rng = Veil_crypto.Rng.create (seed lxor Hashtbl.hash which) in
  let size = Layout.region_size r * T.page_size in
  (T.gpa_of_gpfn r.Layout.lo, Veil_crypto.Rng.bytes rng size)

let region_pair (r : Layout.region) = (r.Layout.lo, r.Layout.hi)

(* Hook construction is parameterized over two call shapes so the
   unbatched and Veil-Ring variants share one definition:
   [call] is a synchronous round trip whose response the kernel
   consumes; [defer] is fire-and-forget traffic (audit records,
   pt_syncs) a ring may batch. *)
let make_hooks (kernel : K.t) ~call ~defer =
  let lift_unit = function
    | Idcb.Resp_ok -> Ok ()
    | Idcb.Resp_error e -> Error e
    | _ -> Error "unexpected response"
  in
  let hooks =
    {
      Guest_kernel.Hooks.h_pvalidate =
        (fun ~gpfn ~to_private -> lift_unit (call (Idcb.R_pvalidate { gpfn; to_private })));
      h_vcpu_boot = (fun ~vcpu_id -> lift_unit (call (Idcb.R_vcpu_boot { vcpu_id })));
      h_module_load =
        (fun image ->
          (* The OS allocates; the service verifies, copies, relocates
             and write-protects (§6.1). *)
          let npages n = max 1 ((n + T.page_size - 1) / T.page_size) in
          let span n = List.init (npages n) (fun _ -> K.alloc_frame kernel) in
          let text_gpfns = span (Bytes.length image.Guest_kernel.Kmodule.text) in
          let data_gpfns = span (Bytes.length image.Guest_kernel.Kmodule.data) in
          match call (Idcb.R_module_load { image; text_gpfns; data_gpfns }) with
          | Idcb.Resp_loaded loaded -> Ok loaded
          | Idcb.Resp_error e ->
              List.iter (K.free_frame kernel) (text_gpfns @ data_gpfns);
              Error e
          | _ -> Error "unexpected response");
      h_module_unload = (fun loaded -> lift_unit (call (Idcb.R_module_unload loaded)));
      h_audit = (fun record -> defer (Idcb.R_log_append record));
      h_enclave_finalize =
        (fun desc ->
          match call (Idcb.R_enclave_finalize desc) with
          | Idcb.Resp_measurement m -> Ok m
          | Idcb.Resp_error e -> Error e
          | _ -> Error "unexpected response");
      h_enclave_destroy = (fun desc -> lift_unit (call (Idcb.R_enclave_destroy desc)));
      h_pt_sync =
        (fun ~pid ~va ~npages ~prot -> defer (Idcb.R_pt_sync { pid; va; npages; prot }));
    }
  in
  K.set_hooks kernel hooks

let install_hooks mon (kernel : K.t) _vcpu =
  (* Veil-SMP: hook calls come from whichever VCPU the kernel is
     currently executing on, not the boot VCPU the hooks were
     installed under — otherwise an AP's monitor requests would use
     VCPU 0's IDCB and VMSA replicas. *)
  let call req = Monitor.os_call mon (K.vcpu kernel) req in
  make_hooks kernel ~call ~defer:(fun req -> ignore (call req))

let boot_veil ?(npages = default_npages) ?log_frames ?(seed = 11) ?(activate_kci = true) ?chaos () =
  let layout = Layout.standard ?log_frames ~npages () in
  let platform = P.create ~seed ~npages () in
  (match chaos with Some plan -> P.arm_chaos platform plan | None -> ());
  let hv = Hypervisor.Hv.create platform in
  let boot_image =
    [
      image_segment ~seed ~which:"veilmon" layout.Layout.mon_image;
      image_segment ~seed ~which:"kernel" layout.Layout.kernel_text;
    ]
  in
  let vcpu = Hypervisor.Hv.launch_cvm hv ~entry_name:"veilmon" ~boot_image in
  let mon = Monitor.create ~hv ~layout ~boot_vcpu:vcpu in
  let kernel =
    K.boot ~platform ~vcpu
      ~free_frames:(region_pair layout.Layout.kernel_free)
      ~text_frames:(region_pair layout.Layout.kernel_text)
      ~data_frames:(region_pair layout.Layout.kernel_data)
      ()
  in
  let kernel_entry = T.gpa_of_gpfn layout.Layout.kernel_text.Layout.lo in
  Monitor.initialize mon ~kernel_entry;
  (* Protected services are part of the measured boot image (§5.1). *)
  let kci =
    Kci.install mon ~vendor_public:(K.vendor_public_key kernel) ~symbols:(K.symbol_table kernel)
  in
  let slog = Slog.install mon in
  let enc = Encsvc.install mon in
  let vtpm = Vtpm.install mon in
  if activate_kci then Kci.activate kci vcpu;
  install_hooks mon kernel vcpu;
  (* Drop into the kernel at Dom_UNT. *)
  Monitor.domain_switch mon vcpu ~target:Privdom.Unt;
  K.finish_boot kernel;
  Hypervisor.Hv.set_interrupt_handler hv (K.handle_interrupt kernel);
  ignore (K.spawn kernel);
  {
    platform;
    hv;
    mon;
    kernel;
    kci;
    slog;
    enc;
    vtpm;
    vcpu;
    layout;
    boot_cycles = Sevsnp.Vcpu.rdtsc vcpu;
  }

(* --- Veil-Ring: opt-in batched submission rings --- *)

let default_ring_slots = 64

(* Flush once the ring is half full: deferral stays bounded (at most
   [slots/2] records ride the ring across syscalls) while one
   Monitor+Switch entry still amortizes over a whole watermark's worth
   of requests. *)
let ring_watermark slots = max 1 (slots / 2)

let flush_ring_of mon vcpu =
  match Monitor.ring_of mon ~vcpu_id:vcpu.Sevsnp.Vcpu.id with
  | Some ring -> ignore (Monitor.os_call_batch mon vcpu ring)
  | None -> ()

let enable_rings ?(slots = default_ring_slots) sys () =
  let mon = sys.mon and kernel = sys.kernel in
  (* One ring per existing VCPU, carved from OS memory (the kernel's
     free-frame pool) — the same less-privileged-party placement rule
     as the IDCBs; the monitor re-checks it at registration. *)
  List.iter
    (fun vcpu ->
      let vcpu_id = vcpu.Sevsnp.Vcpu.id in
      if Monitor.ring_of mon ~vcpu_id = None then begin
        let gpfn = K.alloc_frame kernel in
        match Monitor.register_ring mon (Ring.create ~gpfn ~vcpu_id ~slots) with
        | Ok () -> ()
        | Error e -> failwith ("enable_rings: " ^ e)
      end)
    (P.vcpus sys.platform);
  (* Ring-aware hooks: fire-and-forget traffic rides the current
     VCPU's ring; synchronous calls flush it first so the trusted side
     observes this VCPU's requests in program order. *)
  let call req =
    let vcpu = K.vcpu kernel in
    flush_ring_of mon vcpu;
    Monitor.os_call mon vcpu req
  in
  let defer req =
    let vcpu = K.vcpu kernel in
    match Monitor.ring_of mon ~vcpu_id:vcpu.Sevsnp.Vcpu.id with
    | Some ring ->
        if not (Monitor.ring_submit mon vcpu ring req) then begin
          (* full-ring backpressure: flush, then resubmit *)
          ignore (Monitor.os_call_batch mon vcpu ring);
          ignore (Monitor.ring_submit mon vcpu ring req)
        end
    | None -> ignore (Monitor.os_call mon vcpu req)
  in
  make_hooks kernel ~call ~defer;
  let wm = ring_watermark slots in
  K.set_ring_flush kernel
    (Some
       (fun () ->
         let vcpu = K.vcpu kernel in
         match Monitor.ring_of mon ~vcpu_id:vcpu.Sevsnp.Vcpu.id with
         | Some ring when Ring.pending ring >= wm -> ignore (Monitor.os_call_batch mon vcpu ring)
         | _ -> ()))

let rings_enabled sys =
  List.exists
    (fun vcpu -> Monitor.ring_of sys.mon ~vcpu_id:vcpu.Sevsnp.Vcpu.id <> None)
    (P.vcpus sys.platform)

(* Drain every VCPU's leftover slots (measurement-window barriers,
   audit-log reads: anything that must observe all deferred traffic). *)
let flush_rings sys =
  List.iter (fun vcpu -> flush_ring_of sys.mon vcpu) (P.vcpus sys.platform)

(* --- Veil-Pulse: anchoring telemetry into VeilS-LOG --- *)

(* Drain the sampler's pending anchor lines into the VeilS-LOG region
   through the ordinary (ringable) [R_log_append] path — the same
   execute-ahead chain that protects audit records now covers the
   telemetry chain heads, so a hypervisor that forges pulse data must
   also break the measured log.  Anchor records carry sysno [Write]
   (the telemetry writer) and pid 0.

   Only the anchors pending at entry are drained: the drain's own
   monitor calls advance the clock and can close further intervals,
   whose anchors ride the *next* drain — otherwise a short interval
   could chase its own tail forever. *)
let anchor_pulse sys =
  let pulse = sys.platform.P.pulse in
  let mon = sys.mon in
  let pending = Obs.Pulse.pending_anchors pulse in
  for _ = 1 to pending do
    match Obs.Pulse.pop_anchor pulse with
    | None -> ()
    | Some line ->
        let vcpu = K.vcpu sys.kernel in
        let record =
          {
            Guest_kernel.Audit.seq = Obs.Pulse.anchors_emitted pulse;
            cycles = Sevsnp.Vcpu.rdtsc vcpu;
            sys = Guest_kernel.Sysno.Write;
            pid = 0;
            detail = line;
          }
        in
        let req = Idcb.R_log_append record in
        (match Monitor.ring_of mon ~vcpu_id:vcpu.Sevsnp.Vcpu.id with
        | Some ring ->
            if not (Monitor.ring_submit mon vcpu ring req) then begin
              ignore (Monitor.os_call_batch mon vcpu ring);
              ignore (Monitor.ring_submit mon vcpu ring req)
            end
        | None -> ignore (Monitor.os_call mon vcpu req))
  done;
  if pending > 0 then flush_rings sys;
  pending

let pulse_anchor_lines sys =
  (* The "pulse ..." lines VeilS-LOG retains — what a remote verifier
     reads back (chain-checked) to learn the trusted interval
     digests. *)
  List.filter
    (fun line ->
      (* anchors render as "... pid=0 pulse i=..." via Audit.to_line *)
      let rec find i =
        i + 6 <= String.length line
        && (String.sub line i 6 = "pulse " || find (i + 1))
      in
      find 0)
    (Slog.read_all sys.slog)

let boot_native ?(npages = default_npages) ?(seed = 11) () =
  let layout = Layout.standard ~npages () in
  let platform = P.create ~seed ~npages () in
  let hv = Hypervisor.Hv.create platform in
  let boot_image = [ image_segment ~seed ~which:"kernel" layout.Layout.kernel_text ] in
  let vcpu = Hypervisor.Hv.launch_cvm hv ~entry_name:"linux" ~boot_image in
  (* The native kernel owns everything between the image and the boot
     VMSA frame. *)
  let kernel =
    K.boot ~platform ~vcpu
      ~free_frames:(layout.Layout.kernel_data.Layout.hi, npages - 1)
      ~text_frames:(region_pair layout.Layout.kernel_text)
      ~data_frames:(region_pair layout.Layout.kernel_data)
      ()
  in
  K.finish_boot kernel;
  Hypervisor.Hv.set_interrupt_handler hv (K.handle_interrupt kernel);
  ignore (K.spawn kernel);
  {
    n_platform = platform;
    n_hv = hv;
    n_kernel = kernel;
    n_vcpu = vcpu;
    n_boot_cycles = Sevsnp.Vcpu.rdtsc vcpu;
  }
