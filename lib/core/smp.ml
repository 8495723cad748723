(* Veil-SMP: multi-VCPU guest execution.

   AP bring-up goes through the monitor exactly like the paper's §5
   protocol: the boot VCPU issues [R_vcpu_boot] over its IDCB, VeilMon
   hot-plugs the hardware VCPU, creates and validates the AP's
   per-domain VMSA replicas and IDCB, provisions the AP's kernel GHCB,
   and asks the (untrusted) hypervisor to enter the AP on its Dom_UNT
   instance.

   Execution is then driven by the host's deterministic interleaver
   ({!Hypervisor.Hv.Interleave}): each step picks one runnable VCPU,
   retargets the kernel at it, and steps at most one coroutine from
   that VCPU's runqueue ({!Guest_kernel.Sched.step_vcpu}, which steals
   from a sibling queue when its own has nothing runnable).  Same
   policy + seed + VCPU count => the identical schedule, so chaos
   replay-identity and E-scale reproducibility hold with SMP guests. *)

module K = Guest_kernel.Kernel
module S = Guest_kernel.Sched
module Hv = Hypervisor.Hv
module C = Sevsnp.Cycles

type t = {
  sys : Boot.veil_system;
  vcpus : Sevsnp.Vcpu.t array;
  sched : S.t;
  inter : Hv.Interleave.sched;
}

(* Kernel scheduling costs, charged to whichever VCPU the interleaver
   is stepping: a context switch is a register save/restore plus
   runqueue bookkeeping; a blocked-poll is the (much cheaper) wakeup
   predicate re-check the pre-SMP scheduler performed for free. *)
let context_switch_cost = 900
let blocked_poll_cost = 120

let bring_up ?(policy = Hv.Interleave.Round_robin) sys ~nvcpus () =
  if nvcpus < 1 then invalid_arg "Smp.bring_up: nvcpus must be >= 1";
  let kernel = sys.Boot.kernel in
  for vcpu_id = Sevsnp.Platform.vcpu_count sys.Boot.platform to nvcpus - 1 do
    match (K.hooks kernel).Guest_kernel.Hooks.h_vcpu_boot ~vcpu_id with
    | Ok () -> ()
    | Error e -> failwith (Printf.sprintf "Smp: AP %d bring-up refused: %s" vcpu_id e)
  done;
  let all = Array.of_list (Sevsnp.Platform.vcpus sys.Boot.platform) in
  let vcpus = Array.sub all 0 nvcpus in
  let sched =
    S.create ~nvcpus
      ~on_context_switch:(fun () ->
        Sevsnp.Vcpu.charge (K.vcpu kernel) C.Kernel context_switch_cost)
      ~on_blocked_poll:(fun () -> Sevsnp.Vcpu.charge (K.vcpu kernel) C.Kernel blocked_poll_cost)
        (* Wait-span observability (Veil-Scope): suspensions and
           resumes are stamped on whichever VCPU the interleaver is
           stepping ([run] retargets the kernel before [step_vcpu]).
           The OS scheduler runs at VMPL 3. *)
      ~wait_obs:
        {
          S.wo_tracer = sys.Boot.platform.Sevsnp.Platform.tracer;
          wo_now = (fun () -> Sevsnp.Vcpu.rdtsc (K.vcpu kernel));
          wo_vcpu = (fun () -> (K.vcpu kernel).Sevsnp.Vcpu.id);
          wo_vmpl = 3;
        }
      ()
  in
  (* AP bring-up funnels heavy one-shot traffic through the monitor on
     wildly skewed clocks (the boot VCPU already paid for boot); start
     the serialized-monitor ledger window fresh so wait_stats describes
     steady-state SMP execution. *)
  Monitor.reset_wait_ledger sys.Boot.mon;
  { sys; vcpus; sched; inter = Hv.Interleave.create ~policy ~nvcpus () }

let sched t = t.sched
let nvcpus t = Array.length t.vcpus
let vcpu t i = t.vcpus.(i)
let spawn ?vcpu t ~name body = S.spawn ?vcpu t.sched ~name body

let run ?max_steps t =
  let kernel = t.sys.Boot.kernel in
  let boot_vcpu = t.vcpus.(0) in
  let runnable v = S.queue_live t.sched v in
  let budget = match max_steps with None -> max_int | Some n -> n in
  let rec loop () =
    if S.live t.sched > 0 then
      if Hv.Interleave.steps t.inter >= budget then
        (* Schedule-level watchdog (Veil-Explore): a schedule that
           never retires its coroutines is a livelock finding, reported
           with the same watchdog prefix the chaos step budget uses so
           the shared classifier maps it to [Watchdog]. *)
        raise
          (Sevsnp.Types.Cvm_halted
             (Printf.sprintf "chaos watchdog: interleaver step budget (%d) exceeded" budget))
      else
        match Hv.Interleave.next t.inter ~runnable with
        | None -> failwith "Smp.run: live coroutines on no runqueue"
        | Some v ->
            K.set_vcpu kernel t.vcpus.(v);
            if S.step_vcpu t.sched v then loop ()
            else
              (* No queue anywhere held a runnable task: every live
                 coroutine is blocked. *)
              raise (S.Deadlock (S.live_names t.sched))
  in
  (* Whatever happens, leave the kernel attributed to the boot VCPU —
     single-VCPU code after an SMP phase must not charge an AP. *)
  Fun.protect ~finally:(fun () -> K.set_vcpu kernel boot_vcpu) loop

let journal t = Hv.Interleave.journal t.inter
let schedule_steps t = Hv.Interleave.steps t.inter
let steals t = S.steals t.sched
