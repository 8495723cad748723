type t = {
  mem : Phys_mem.t;
  rmp : Rmp.t;
  mutable vcpus_rev : Vcpu.t list;
  mutable nvcpus : int;
  ghcbs : (Types.gpfn, Ghcb.t) Hashtbl.t;
  attestation : Attestation.t;
  rng : Veil_crypto.Rng.t;
  mutable halted : string option;
  mutable exit_handler : (Vcpu.t -> unit) option;
  mutable npf_count : int;
  vmsa_table : (Types.gpfn, Vmsa.t) Hashtbl.t;
  metrics : Obs.Metrics.t;
  tracer : Obs.Trace.t;
  profiler : Obs.Profiler.t;
  pulse : Obs.Pulse.t;
  mutable chaos : Chaos.Fault_plan.t option;
  c_npf : Obs.Metrics.counter;
  c_rmpadjust : Obs.Metrics.counter;
  c_pvalidate : Obs.Metrics.counter;
  c_vmgexit : Obs.Metrics.counter;
  c_vmenter : Obs.Metrics.counter;
  c_tlb_hit : Obs.Metrics.counter;
  c_tlb_miss : Obs.Metrics.counter;
  c_tlb_flush : Obs.Metrics.counter;
  c_ipi : Obs.Metrics.counter;
  g_trace_dropped : Obs.Metrics.gauge;
}

exception Guest_page_fault of { fault_va : Types.va; fault_access : Types.access }

let create ?(seed = 7) ~npages () =
  let rng = Veil_crypto.Rng.create seed in
  let metrics = Obs.Metrics.create () in
  let t =
    {
    mem = Phys_mem.create ~npages;
    rmp = Rmp.create ~npages;
    vcpus_rev = [];
    nvcpus = 0;
    ghcbs = Hashtbl.create 8;
    attestation = Attestation.create (Veil_crypto.Rng.split rng);
    rng;
    halted = None;
    exit_handler = None;
    npf_count = 0;
    vmsa_table = Hashtbl.create 16;
    metrics;
    tracer = Obs.Trace.create ();
    profiler = Obs.Profiler.create ();
    pulse = Obs.Pulse.create ~metrics ();
    chaos = None;
    c_npf = Obs.Metrics.counter metrics "platform.npf";
    c_rmpadjust = Obs.Metrics.counter metrics "platform.rmpadjust";
    c_pvalidate = Obs.Metrics.counter metrics "platform.pvalidate";
    c_vmgexit = Obs.Metrics.counter metrics "platform.vmgexit";
    c_vmenter = Obs.Metrics.counter metrics "platform.vmenter";
    c_tlb_hit = Obs.Metrics.counter metrics "tlb.hit";
    c_tlb_miss = Obs.Metrics.counter metrics "tlb.miss";
    c_tlb_flush = Obs.Metrics.counter metrics "tlb.flush";
    c_ipi = Obs.Metrics.counter metrics "platform.ipi";
    g_trace_dropped = Obs.Metrics.gauge metrics "trace.dropped";
    }
  in
  (* Lazily-maintained gauges are trued up by the registry-wide
     refresh hook, so every dump / to_json / pulse snapshot sees
     current values — no caller-side refresh discipline needed. *)
  Obs.Metrics.set_refresh metrics (fun () ->
      Obs.Metrics.set t.g_trace_dropped (Obs.Trace.dropped t.tracer));
  Obs.Pulse.set_tracer t.pulse (Some t.tracer);
  t

(* Ring wraparound is invisible to the tracer's hot path; surface it as
   a gauge on demand (kept for existing callers — the registry refresh
   hook installed by [create] now runs this on every registry read). *)
let refresh_obs_gauges t = Obs.Metrics.refresh t.metrics

(* Machine-wide TLB shootdown: invalidate every VCPU's cached
   translations (page-table edit, RMP mutation outside the Rmp module's
   own bumps). *)
let tlb_shootdown t =
  incr (Rmp.generation t.rmp);
  Obs.Metrics.incr t.c_tlb_flush

let halt t reason =
  if t.halted = None then t.halted <- Some reason;
  raise (Types.Cvm_halted reason)

(* --- Veil-Chaos fault injection --- *)

let arm_chaos t plan = t.chaos <- Some plan
let disarm_chaos t = t.chaos <- None

(* Mark an injection: a lazily-interned chaos.* counter (the registry
   only grows chaos entries on machines that actually saw faults) plus
   an instant trace event so chaos runs render in Perfetto. *)
let chaos_mark t vcpu name =
  Obs.Metrics.incr (Obs.Metrics.counter t.metrics ("chaos." ^ name));
  if Obs.Trace.enabled t.tracer then begin
    let vc, ts, vmpl =
      match vcpu with
      | Some v -> (v.Vcpu.id, Vcpu.rdtsc v, Types.vmpl_index (Vcpu.vmpl v))
      | None -> (-1, 0, -1)
    in
    Obs.Trace.emit t.tracer ~phase:Obs.Trace.Instant ~bucket:"chaos" ~vcpu:vc ~vmpl ~ts
      (Obs.Trace.Span ("chaos." ^ name))
  end

(* Flip one bit in a uniformly-drawn Shared frame — the DRAM/host
   disturbance of the fault model.  Private (encrypted, integrity-
   protected) frames are structurally out of reach: only frames the
   RMP maps as [Shared] are candidates.  O(npages) scans are fine
   here; injections are rare events. *)
let chaos_flip_shared t plan =
  let n = Rmp.npages t.rmp in
  let nshared = ref 0 in
  for g = 0 to n - 1 do
    if Rmp.state t.rmp g = Rmp.Shared then incr nshared
  done;
  if !nshared > 0 then begin
    let k = Chaos.Fault_plan.draw plan !nshared in
    let target = ref (-1) in
    let seen = ref 0 in
    (try
       for g = 0 to n - 1 do
         if Rmp.state t.rmp g = Rmp.Shared then begin
           if !seen = k then begin
             target := g;
             raise Exit
           end;
           incr seen
         end
       done
     with Exit -> ());
    if !target >= 0 then begin
      assert (Rmp.state t.rmp !target = Rmp.Shared);
      let gpa = Types.gpa_of_gpfn !target + Chaos.Fault_plan.draw plan Types.page_size in
      Phys_mem.flip_bit t.mem gpa (Chaos.Fault_plan.draw plan 8);
      chaos_mark t None "shared_bitflip"
    end
  end

let check_running t = match t.halted with None -> () | Some r -> raise (Types.Cvm_halted r)

let is_halted t = t.halted

let raise_npf_at t vcpu info =
  t.npf_count <- t.npf_count + 1;
  Obs.Metrics.incr t.c_npf;
  if Obs.Trace.enabled t.tracer then begin
    let vc, ts = match vcpu with Some v -> (v.Vcpu.id, Vcpu.rdtsc v) | None -> (-1, 0) in
    Obs.Trace.emit t.tracer ~vcpu:vc
      ~vmpl:(Types.vmpl_index info.Types.fault_vmpl)
      ~ts ~arg:(Types.gpfn_of_gpa info.Types.fault_gpa) Obs.Trace.Npf
  end;
  (if Obs.Profiler.enabled t.profiler then
     match vcpu with
     | Some v ->
         (* #NPF halts the CVM; a zero-cycle leaf marks where under the
            current attribution stack the fault landed. *)
         Obs.Profiler.leaf t.profiler ~vcpu:v.Vcpu.id
           ~vmpl:(Types.vmpl_index info.Types.fault_vmpl) ~dur:0 "npf"
     | None -> ());
  t.halted <- Some (Format.asprintf "%a" Types.pp_npf info);
  raise (Types.Npf info)

let raise_npf t info = raise_npf_at t None info

(* --- launch --- *)

let launch_load t ~entry_name segments =
  let m = Veil_crypto.Measurement.create ~domain:"cvm-launch" in
  Veil_crypto.Measurement.add_string m ~label:"entry" entry_name;
  List.iter
    (fun (gpa, data) ->
      let first = Types.gpfn_of_gpa gpa and last = Types.gpfn_of_gpa (gpa + Bytes.length data - 1) in
      for gpfn = first to last do
        Rmp.validate t.rmp gpfn
      done;
      Phys_mem.write t.mem gpa data;
      Veil_crypto.Measurement.add_int m ~label:"gpa" gpa;
      Veil_crypto.Measurement.add_bytes m ~label:"segment" data)
    segments;
  Attestation.record_launch t.attestation ~measurement:(Veil_crypto.Measurement.digest m)

let add_vcpu t =
  let v = Vcpu.create ~id:t.nvcpus ~tlb_gen:(Rmp.generation t.rmp) in
  t.vcpus_rev <- v :: t.vcpus_rev;
  t.nvcpus <- t.nvcpus + 1;
  v

let add_boot_vcpu t =
  assert (t.vcpus_rev = []);
  add_vcpu t

let vcpu_count t = t.nvcpus

let vcpus t = List.rev t.vcpus_rev

let vcpu_by_id t id = List.find_opt (fun v -> v.Vcpu.id = id) t.vcpus_rev

(* Distributed TLB shootdown (Veil-SMP): the cycle-true replacement
   for the old flat 500-cycle constant.  The initiator pays its local
   flush ([Cycles.tlb_local_flush]) plus one IPI send + ack-wait per
   *remote* VCPU; each remote pays the flush-handler ISR and has its
   TLB epoch flushed.  With a single VCPU this charges exactly the old
   500 cycles and touches nothing else, which is what keeps the
   calibrated E2/E3/E4 single-VCPU numbers byte-identical.

   Note the RMP generation is NOT bumped here: the page-table edit
   that motivated the shootdown already bumped it through
   [tlb_shootdown] (the [Pagetable] io callback), and the generation
   is machine-wide — what remains per-VCPU is the cost and the epoch
   flush this function models. *)
let tlb_shootdown_distributed t ~initiator =
  Vcpu.charge initiator Cycles.Kernel Cycles.tlb_local_flush;
  Tlb.flush initiator.Vcpu.tlb;
  List.iter
    (fun v ->
      if v.Vcpu.id <> initiator.Vcpu.id then begin
        Obs.Metrics.incr t.c_ipi;
        Ipi.send ~initiator ~target:v Ipi.Tlb_flush;
        (* The ack leg of the send the initiator just paid for is
           waiting, not work: the spin until this remote acknowledged
           ([Cycles.ipi_ack], the tail of the interval Ipi.send
           charged). *)
        if Obs.Trace.enabled t.tracer then
          Obs.Trace.complete t.tracer ~bucket:"kernel"
            ~id:(Obs.Profiler.id t.profiler ~vcpu:initiator.Vcpu.id)
            ~vcpu:initiator.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl initiator))
            ~ts:(Vcpu.rdtsc initiator - Cycles.ipi_ack) ~dur:Cycles.ipi_ack
            (Obs.Trace.Wait Obs.Trace.Shootdown_ack)
      end)
    (List.rev t.vcpus_rev)

(* --- checked guest access --- *)

let check_page t vcpu gpfn access =
  match
    Rmp.check_guest_access t.rmp ~gpfn ~vmpl:(Vcpu.vmpl vcpu) ~cpl:(Vcpu.cpl vcpu) ~access
  with
  | Ok () -> ()
  | Error info -> raise_npf_at t (Some vcpu) info

let check_range t vcpu gpa len access =
  if len > 0 then begin
    let first = Types.gpfn_of_gpa gpa and last = Types.gpfn_of_gpa (gpa + len - 1) in
    for gpfn = first to last do
      check_page t vcpu gpfn access
    done
  end

let read t vcpu gpa len =
  check_running t;
  check_range t vcpu gpa len Types.Read;
  Phys_mem.read t.mem gpa len

let read_into t vcpu gpa buf pos len =
  check_running t;
  check_range t vcpu gpa len Types.Read;
  Phys_mem.read_into t.mem gpa buf pos len

let write t vcpu gpa data =
  check_running t;
  check_range t vcpu gpa (Bytes.length data) Types.Write;
  Phys_mem.write t.mem gpa data

let write_sub t vcpu gpa data pos len =
  check_running t;
  check_range t vcpu gpa len Types.Write;
  Phys_mem.write_sub t.mem gpa data pos len

let read_u64 t vcpu gpa =
  check_running t;
  check_range t vcpu gpa 8 Types.Read;
  Phys_mem.read_u64 t.mem gpa

let write_u64 t vcpu gpa v =
  check_running t;
  check_range t vcpu gpa 8 Types.Write;
  Phys_mem.write_u64 t.mem gpa v

let check_exec t vcpu gpa =
  check_running t;
  check_page t vcpu (Types.gpfn_of_gpa gpa) Types.Execute

let raw_pt_read t gpa = Phys_mem.read_u64 t.mem gpa

let translate t ~root va = Pagetable.walk ~read_u64:(raw_pt_read t) ~root va

let pt_access_ok (vcpu : Vcpu.t) (pte : Pagetable.pte) access =
  let f = pte.Pagetable.pte_flags in
  let user = Vcpu.cpl vcpu = Types.Cpl3 in
  (not (user && not f.Pagetable.user))
  && (match access with Types.Write -> f.Pagetable.writable | Types.Read -> true | Types.Execute -> not f.Pagetable.nx)

(* Slow translation path: full table walk, flag check, RMP check —
   then install the result (translation + permission snapshot) in the
   VCPU's TLB.  Faults here are the authoritative ones; the TLB can
   only *allow* faster, never differently, because any state change
   that could flip a decision bumps the generation. *)
let translate_slow t vcpu ~root a access =
  Obs.Metrics.incr t.c_tlb_miss;
  let off = Types.page_offset a in
  match translate t ~root (a - off) with
  | None -> raise (Guest_page_fault { fault_va = a; fault_access = access })
  | Some pte ->
      if not (pt_access_ok vcpu pte access) then raise (Guest_page_fault { fault_va = a; fault_access = access });
      let gpfn = pte.Pagetable.pte_gpfn in
      check_page t vcpu gpfn access;
      Tlb.fill vcpu.Vcpu.tlb ~vapage:(a lsr Types.page_shift) ~root ~gpfn
        ~flags:(Tlb.pack_flags pte.Pagetable.pte_flags)
        ~rmp:(Rmp.tlb_snapshot t.rmp gpfn ~vmpl:(Vcpu.vmpl vcpu));
      gpfn

(* Translate one address with the TLB in front.  A hit evaluates the
   cached flags and RMP snapshot under the caller's *current* CPL/VMPL
   and access; anything the cached state does not cleanly permit falls
   back to the slow path, which re-derives the authoritative fault. *)
let tlb_translate t vcpu ~root a access =
  let vmsa = Vcpu.current_vmsa vcpu in
  let gpfn =
    Tlb.lookup vcpu.Vcpu.tlb ~vapage:(a lsr Types.page_shift) ~root access vmsa.Vmsa.cpl
      vmsa.Vmsa.vmpl
  in
  if gpfn >= 0 then begin
    Obs.Metrics.incr t.c_tlb_hit;
    gpfn
  end
  else translate_slow t vcpu ~root a access

let via_pt t vcpu ~root va len access k =
  check_running t;
  let pos = ref 0 in
  while !pos < len do
    let a = va + !pos in
    let off = Types.page_offset a in
    let n = min (len - !pos) (Types.page_size - off) in
    let gpfn = tlb_translate t vcpu ~root a access in
    k ~gpa:(Types.gpa_of_gpfn gpfn + off) ~pos:!pos ~len:n;
    pos := !pos + n
  done

let read_via_pt t vcpu ~root va len =
  let out = Bytes.create len in
  via_pt t vcpu ~root va len Types.Read (fun ~gpa ~pos ~len ->
      Phys_mem.read_into t.mem gpa out pos len);
  out

let read_into_via_pt t vcpu ~root va buf pos len =
  via_pt t vcpu ~root va len Types.Read (fun ~gpa ~pos:p ~len ->
      Phys_mem.read_into t.mem gpa buf (pos + p) len)

let write_via_pt t vcpu ~root va data =
  via_pt t vcpu ~root va (Bytes.length data) Types.Write (fun ~gpa ~pos ~len ->
      Phys_mem.write_sub t.mem gpa data pos len)

let write_sub_via_pt t vcpu ~root va data pos len =
  via_pt t vcpu ~root va len Types.Write (fun ~gpa ~pos:p ~len ->
      Phys_mem.write_sub t.mem gpa data (pos + p) len)

let read_u64_via_pt t vcpu ~root va =
  check_running t;
  if Types.page_offset va <= Types.page_size - 8 then begin
    let gpfn = tlb_translate t vcpu ~root va Types.Read in
    Phys_mem.read_u64 t.mem (Types.gpa_of_gpfn gpfn + Types.page_offset va)
  end
  else begin
    (* page-straddling load: translate both pages byte by byte *)
    let v = ref 0 in
    for i = 7 downto 0 do
      let a = va + i in
      let gpfn = tlb_translate t vcpu ~root a Types.Read in
      v := (!v lsl 8) lor Phys_mem.read_byte t.mem (Types.gpa_of_gpfn gpfn + Types.page_offset a)
    done;
    !v land max_int
  end

let write_u64_via_pt t vcpu ~root va v =
  check_running t;
  if Types.page_offset va <= Types.page_size - 8 then begin
    let gpfn = tlb_translate t vcpu ~root va Types.Write in
    Phys_mem.write_u64 t.mem (Types.gpa_of_gpfn gpfn + Types.page_offset va) v
  end
  else
    for i = 0 to 7 do
      let a = va + i in
      let gpfn = tlb_translate t vcpu ~root a Types.Write in
      Phys_mem.write_byte t.mem (Types.gpa_of_gpfn gpfn + Types.page_offset a) ((v lsr (8 * i)) land 0xff)
    done

let check_exec_via_pt t vcpu ~root va =
  check_running t;
  ignore (tlb_translate t vcpu ~root va Types.Execute)

(* --- instructions --- *)

let rmpadjust t vcpu ?(bucket = Cycles.Other) ~gpfn ~target ~perms ~vmsa () =
  check_running t;
  let touch =
    if gpfn >= 0 && gpfn < Rmp.npages t.rmp && Rmp.touch t.rmp gpfn then Cycles.rmpadjust_page_touch
    else 0
  in
  Vcpu.charge vcpu bucket (Cycles.rmpadjust_insn + touch);
  Obs.Metrics.incr t.c_rmpadjust;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl vcpu))
      ~ts:(Vcpu.rdtsc vcpu) ~bucket:(Cycles.bucket_name bucket) ~arg:gpfn
      ~id:(Obs.Profiler.id t.profiler ~vcpu:vcpu.Vcpu.id) Obs.Trace.Rmpadjust;
  if Obs.Profiler.enabled t.profiler then
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl vcpu))
      ~dur:(Cycles.rmpadjust_insn + touch) "rmpadjust";
  (* The page touch: a caller that cannot read the frame faults. *)
  let caller = Vcpu.vmpl vcpu in
  (match Rmp.check_guest_access t.rmp ~gpfn ~vmpl:caller ~cpl:Types.Cpl0 ~access:Types.Read with
  | Ok () -> ()
  | Error info -> raise_npf_at t (Some vcpu) info);
  (match t.chaos with
  | Some plan when Chaos.Fault_plan.fire plan Chaos.Fault_plan.Spurious_npf ->
      (* a *resumable* #NPF: the host swapped the backing frame out and
         in again, so the guest pays an exit and hardware re-executes
         the instruction — extra cycles, then the op completes *)
      Vcpu.charge vcpu Cycles.Switch Cycles.npf_exit;
      chaos_mark t (Some vcpu) "spurious_npf"
  | _ -> ());
  match t.chaos with
  | Some plan when Chaos.Fault_plan.fire plan Chaos.Fault_plan.Rmpadjust_fail ->
      chaos_mark t (Some vcpu) "rmpadjust_fail";
      Error "RMPADJUST: FAIL_INUSE (transient)"
  | _ ->
      let r = Rmp.adjust t.rmp ~caller ~gpfn ~target ~perms ~vmsa in
      (* Rmp.adjust bumped the generation; account the flush. *)
      if r = Ok () then Obs.Metrics.incr t.c_tlb_flush;
      r

let pvalidate t vcpu ?(bucket = Cycles.Other) ~gpfn ~to_private () =
  check_running t;
  Vcpu.charge vcpu bucket Cycles.pvalidate;
  Obs.Metrics.incr t.c_pvalidate;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl vcpu))
      ~ts:(Vcpu.rdtsc vcpu) ~bucket:(Cycles.bucket_name bucket) ~arg:gpfn
      ~id:(Obs.Profiler.id t.profiler ~vcpu:vcpu.Vcpu.id) Obs.Trace.Pvalidate;
  if Obs.Profiler.enabled t.profiler then
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl vcpu))
      ~dur:Cycles.pvalidate "pvalidate";
  match t.chaos with
  | Some plan when Chaos.Fault_plan.fire plan Chaos.Fault_plan.Pvalidate_fail ->
      chaos_mark t (Some vcpu) "pvalidate_fail";
      Error "PVALIDATE: FAIL_INUSE (transient)"
  | _ ->
  if Vcpu.vmpl vcpu <> Types.Vmpl0 then Error "pvalidate: FAIL_PERMISSION (not VMPL-0)"
  else if gpfn < 0 || gpfn >= Rmp.npages t.rmp then Error "pvalidate: frame out of range"
  else begin
    if to_private then Rmp.validate t.rmp gpfn else Rmp.unvalidate t.rmp gpfn;
    (* state change bumped the generation; account the flush *)
    Obs.Metrics.incr t.c_tlb_flush;
    Ok ()
  end

let set_ghcb t vcpu gpa =
  check_running t;
  let gpfn = Types.gpfn_of_gpa gpa in
  if gpfn < 0 || gpfn >= Rmp.npages t.rmp then Error "ghcb: frame out of range"
  else if Rmp.state t.rmp gpfn <> Rmp.Shared then Error "ghcb: page is not shared"
  else begin
    (Vcpu.current_vmsa vcpu).Vmsa.ghcb_gpa <- gpa;
    if not (Hashtbl.mem t.ghcbs gpfn) then Hashtbl.replace t.ghcbs gpfn (Ghcb.create ());
    Ok ()
  end

let register_ghcb t gpa =
  let gpfn = Types.gpfn_of_gpa gpa in
  if gpfn < 0 || gpfn >= Rmp.npages t.rmp then Error "ghcb: frame out of range"
  else if Rmp.state t.rmp gpfn <> Rmp.Shared then Error "ghcb: page is not shared"
  else begin
    match Hashtbl.find_opt t.ghcbs gpfn with
    | Some g -> Ok g
    | None ->
        let g = Ghcb.create () in
        Hashtbl.replace t.ghcbs gpfn g;
        Ok g
  end

let ghcb_at t gpfn = Hashtbl.find_opt t.ghcbs gpfn

let ghcb_of_vcpu t vcpu =
  let gpa = (Vcpu.current_vmsa vcpu).Vmsa.ghcb_gpa in
  if gpa = 0 then None else ghcb_at t (Types.gpfn_of_gpa gpa)

let dispatch_exit t vcpu =
  match t.exit_handler with
  | Some h -> h vcpu
  | None -> halt t "VM exit with no hypervisor attached"

(* Chaos watchdog: every world exit spends one unit of the plan's step
   budget.  A retry protocol that stops converging (livelock) exhausts
   it and the CVM halts with an explicit reason instead of hanging —
   invariant (2) of the chaos driver. *)
let chaos_step t =
  match t.chaos with
  | None -> ()
  | Some plan ->
      if not (Chaos.Fault_plan.step plan) then
        halt t "chaos watchdog: step budget exceeded"

let vmgexit t vcpu =
  check_running t;
  chaos_step t;
  vcpu.Vcpu.last_exit_ts <- Vcpu.rdtsc vcpu;
  (* Veil-Pulse epoch sampler: rides the same world-exit boundary as
     the chaos watchdog.  Disarmed this is one flag test; a fired
     capture bills its monitor-resident registry scan to the ticking
     VCPU. *)
  if Obs.Pulse.tick t.pulse ~now:vcpu.Vcpu.last_exit_ts then
    Vcpu.charge vcpu Cycles.Monitor Cycles.pulse_sample;
  Obs.Metrics.incr t.c_vmgexit;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl vcpu))
      ~ts:vcpu.Vcpu.last_exit_ts ~bucket:"switch" ~arg:0
      ~id:(Obs.Profiler.id t.profiler ~vcpu:vcpu.Vcpu.id) Obs.Trace.Vmgexit;
  Vcpu.charge vcpu Cycles.Switch (Cycles.automatic_exit + Cycles.vmsa_save + Cycles.ghcb_msr_protocol);
  (* The combined exit charge, attributed leg by leg (paper §9.1). *)
  if Obs.Profiler.enabled t.profiler then begin
    let vmpl = Types.vmpl_index (Vcpu.vmpl vcpu) in
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.automatic_exit "vmgexit";
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.vmsa_save "vmsa_save";
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.ghcb_msr_protocol
      "ghcb_protocol"
  end;
  vcpu.Vcpu.exits <- vcpu.Vcpu.exits + 1;
  dispatch_exit t vcpu

let automatic_exit t vcpu =
  check_running t;
  chaos_step t;
  vcpu.Vcpu.last_exit_ts <- Vcpu.rdtsc vcpu;
  if Obs.Pulse.tick t.pulse ~now:vcpu.Vcpu.last_exit_ts then
    Vcpu.charge vcpu Cycles.Monitor Cycles.pulse_sample;
  Obs.Metrics.incr t.c_vmgexit;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index (Vcpu.vmpl vcpu))
      ~ts:vcpu.Vcpu.last_exit_ts ~bucket:"switch" ~arg:1
      ~id:(Obs.Profiler.id t.profiler ~vcpu:vcpu.Vcpu.id) Obs.Trace.Vmgexit;
  Vcpu.charge vcpu Cycles.Switch (Cycles.automatic_exit + Cycles.vmsa_save);
  (* Same exit leg as VMGEXIT, minus the GHCB MSR protocol. *)
  if Obs.Profiler.enabled t.profiler then begin
    let vmpl = Types.vmpl_index (Vcpu.vmpl vcpu) in
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.automatic_exit "vmgexit";
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.vmsa_save "vmsa_save"
  end;
  vcpu.Vcpu.exits <- vcpu.Vcpu.exits + 1;
  dispatch_exit t vcpu

let vmenter t vcpu vmsa =
  check_running t;
  Vcpu.charge vcpu Cycles.Switch (Cycles.automatic_exit + Cycles.vmsa_restore);
  if Obs.Profiler.enabled t.profiler then begin
    (* Entry legs, attributed to the instance being entered. *)
    let vmpl = Types.vmpl_index vmsa.Vmsa.vmpl in
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.automatic_exit "vmenter";
    Obs.Profiler.leaf t.profiler ~vcpu:vcpu.Vcpu.id ~vmpl ~dur:Cycles.vmsa_restore "vmsa_restore"
  end;
  (* Instance switch (the VMPL/domain switch of the paper) flushes this
     CPU's TLB; re-entering the same instance (same ASID) keeps it. *)
  (match vcpu.Vcpu.current with
  | Some prev when prev == vmsa -> ()
  | _ ->
      Tlb.flush vcpu.Vcpu.tlb;
      Obs.Metrics.incr t.c_tlb_flush);
  vcpu.Vcpu.current <- Some vmsa;
  Obs.Metrics.incr t.c_vmenter;
  if Obs.Trace.enabled t.tracer then
    Obs.Trace.emit t.tracer ~vcpu:vcpu.Vcpu.id ~vmpl:(Types.vmpl_index vmsa.Vmsa.vmpl)
      ~ts:(Vcpu.rdtsc vcpu) ~bucket:"switch"
      ~id:(Obs.Profiler.id t.profiler ~vcpu:vcpu.Vcpu.id) Obs.Trace.Vmenter

let install_vmsa t (vmsa : Vmsa.t) =
  (* Hardware accepts a frame as a VMSA only once RMPADJUST marked it. *)
  if not (Rmp.is_vmsa t.rmp vmsa.Vmsa.backing_gpfn) then
    Error "install_vmsa: frame lacks the RMP VMSA attribute"
  else begin
    Hashtbl.replace t.vmsa_table vmsa.Vmsa.backing_gpfn vmsa;
    Ok ()
  end

let vmsa_at t gpfn =
  if Rmp.is_vmsa t.rmp gpfn then Hashtbl.find_opt t.vmsa_table gpfn else None

(* --- host-side access --- *)

let host_page_check t gpa len =
  if len < 0 || gpa < 0 || gpa + len > Phys_mem.bytes_size t.mem then Error "host access out of range"
  else begin
    let first = Types.gpfn_of_gpa gpa and last = Types.gpfn_of_gpa (gpa + max 0 (len - 1)) in
    let rec go gpfn =
      if gpfn > last then Ok ()
      else if Rmp.host_can_access t.rmp gpfn then go (gpfn + 1)
      else Error (Printf.sprintf "SNP: host access to private guest frame %d blocked" gpfn)
    in
    go first
  end

let host_read t gpa len =
  match host_page_check t gpa len with
  | Ok () -> Ok (Phys_mem.read t.mem gpa len)
  | Error _ as e -> e

let host_write t gpa data =
  match host_page_check t gpa (Bytes.length data) with
  | Ok () ->
      Phys_mem.write t.mem gpa data;
      Ok ()
  | Error _ as e -> e

let attestation_report t vcpu ~report_data =
  check_running t;
  Vcpu.charge vcpu Cycles.Crypto (Cycles.hash_cost 4096);
  Attestation.report t.attestation ~requester_vmpl:(Vcpu.vmpl vcpu) ~report_data

(* --- Veil-Pulse attested export --- *)

(* Telemetry leaves the CVM through the hypervisor, which the threat
   model lets corrupt or suppress anything in flight.  [export_pulse]
   is that hostile channel: the [Pulse_export_tamper] chaos site may
   edit one exported interval line or drop it entirely before the
   verifier sees the data.  [Pulse.verify_export] must flag the exact
   interval — detected tampering, never silently accepted numbers. *)
let export_pulse t =
  let exported = Obs.Pulse.export t.pulse in
  match t.chaos with
  | Some plan when Chaos.Fault_plan.fire plan Chaos.Fault_plan.Pulse_export_tamper -> (
      chaos_mark t None "pulse_export_tamper";
      match String.split_on_char '\n' exported with
      | header :: lines when lines <> [] ->
          let victim = Chaos.Fault_plan.draw plan (List.length lines) in
          let drop = Chaos.Fault_plan.draw plan 2 = 0 in
          let lines' =
            List.concat (List.mapi
              (fun i line ->
                if i <> victim then [ line ]
                else if drop then []
                else
                  (* Edit: perturb one digit of the payload so the
                     line still parses but its digest diverges. *)
                  [ (let b = Bytes.of_string line in
                     let k = Bytes.length b - 1 in
                     Bytes.set b k (if Bytes.get b k = '0' then '1' else '0');
                     Bytes.to_string b) ])
              lines)
          in
          String.concat "\n" (header :: lines')
      | _ -> exported)
  | _ -> exported
