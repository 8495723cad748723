(* Veil-SMP tests: AP bring-up through the monitor, the deterministic
   interleaver, per-VCPU runqueues with work stealing, and the
   distributed TLB-shootdown IPI cost model. *)

module K = Guest_kernel.Ktypes
module S = Guest_kernel.Sysno
module Kern = Guest_kernel.Kernel
module Sched = Guest_kernel.Sched
module Smp = Veil_core.Smp
module B = Veil_core.Boot
module P = Sevsnp.Platform
module V = Sevsnp.Vcpu
module C = Sevsnp.Cycles
module T = Sevsnp.Types
module Hv = Hypervisor.Hv

let boot () = B.boot_veil ~npages:2048 ~seed:7 ()

(* --- AP bring-up is a monitored §5 delegation --- *)

let test_bring_up () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:4 () in
  Alcotest.(check int) "nvcpus" 4 (Smp.nvcpus smp);
  Alcotest.(check int) "hardware vcpus hot-plugged" 4 (P.vcpu_count sys.B.platform);
  let m = Veil_core.Monitor.stats sys.B.mon in
  Alcotest.(check int) "3 delegated boots" 3 m.Veil_core.Monitor.delegated_vcpu_boots;
  for i = 0 to 3 do
    Alcotest.(check int) (Printf.sprintf "vcpu %d id" i) i (Smp.vcpu smp i).V.id
  done;
  (* every AP boots at VMPL-3 (Dom_UNT), like the paper's §5.3 *)
  for i = 1 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "ap %d at vmpl3" i)
      true
      (V.vmpl (Smp.vcpu smp i) = T.Vmpl3)
  done;
  (* pinned workers really execute on their APs: each one makes
     syscalls and the cycles land on that AP's own counter *)
  let kernel = sys.B.kernel in
  let before = Array.init 4 (fun i -> C.total (Smp.vcpu smp i).V.counter) in
  for w = 0 to 3 do
    Smp.spawn ~vcpu:w smp
      ~name:(Printf.sprintf "worker-%d" w)
      (fun () ->
        let proc = Kern.spawn kernel in
        for _ = 1 to 5 do
          (match Kern.invoke kernel proc S.Getpid [] with
          | K.RInt _ -> ()
          | r -> Alcotest.failf "getpid: %a" K.pp_ret r);
          Sched.yield ()
        done)
  done;
  Smp.run smp;
  for i = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "vcpu %d accrued cycles" i)
      true
      (C.total (Smp.vcpu smp i).V.counter > before.(i))
  done;
  (* Smp.run always hands the kernel back to the boot VCPU *)
  Alcotest.(check int) "kernel back on boot vcpu" 0 (Kern.vcpu kernel).V.id

let test_bring_up_refusals () =
  let sys = boot () in
  let hooks = Kern.hooks sys.B.kernel in
  let expect_err label id =
    match hooks.Guest_kernel.Hooks.h_vcpu_boot ~vcpu_id:id with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: vcpu_id %d accepted" label id
  in
  (* the id is OS-provided data: the monitor sanitizes it *)
  expect_err "id 0 is the boot vcpu" 0;
  expect_err "negative id" (-1);
  expect_err "id past the idcb slots" 8;
  expect_err "id skips ahead" 2;
  (* a legitimate boot, then a duplicate of the same id *)
  (match hooks.Guest_kernel.Hooks.h_vcpu_boot ~vcpu_id:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ap 1: %s" e);
  expect_err "duplicate id" 1;
  Alcotest.(check int) "only one ap plugged" 2 (P.vcpu_count sys.B.platform);
  (* bring_up surfaces a monitor refusal as Failure, not a hang *)
  match Smp.bring_up (boot ()) ~nvcpus:9 () with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "nvcpus=9 must exceed the idcb region's slots"

(* --- per-VCPU runqueues steal work deterministically --- *)

let test_work_stealing () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:2 () in
  let done_ = ref 0 and flag = ref false in
  (* VCPU 1's own queue holds only a blocked waiter, so every step the
     interleaver grants it must be served by stealing runnable work
     from VCPU 0's overloaded queue. *)
  Smp.spawn ~vcpu:1 smp ~name:"waiter" (fun () ->
      Sched.block_until (fun () -> !flag);
      incr done_);
  for i = 0 to 6 do
    Smp.spawn ~vcpu:0 smp
      ~name:(Printf.sprintf "pinned-%d" i)
      (fun () ->
        for _ = 1 to 4 do
          Sched.yield ()
        done;
        if i = 6 then flag := true;
        incr done_)
  done;
  Smp.run smp;
  Alcotest.(check int) "all tasks finished" 8 !done_;
  Alcotest.(check bool) "idle vcpu stole work" true (Smp.steals smp > 0);
  Alcotest.(check bool) "journal one digit per step" true
    (String.length (Smp.journal smp) = Smp.schedule_steps smp)

(* --- the interleaver schedule is a pure function of the seed --- *)

let run_seeded seed =
  let sys = boot () in
  let smp = Smp.bring_up ~policy:(Hv.Interleave.Seeded seed) sys ~nvcpus:4 () in
  let acc = ref 0 in
  for w = 0 to 3 do
    Smp.spawn ~vcpu:w smp
      ~name:(Printf.sprintf "t-%d" w)
      (fun () ->
        for _ = 1 to 8 do
          acc := (!acc * 31) + w;
          Sched.yield ()
        done)
  done;
  Smp.run smp;
  (Smp.journal smp, !acc)

let test_determinism () =
  let j1, a1 = run_seeded 1234 in
  let j2, a2 = run_seeded 1234 in
  Alcotest.(check string) "same seed, same schedule" j1 j2;
  Alcotest.(check int) "same seed, same interleaving result" a1 a2;
  let j3, _ = run_seeded 99 in
  Alcotest.(check bool) "different seed, different schedule" true (j1 <> j3)

(* --- the schedule watchdog: Smp.run ?max_steps (ISSUE 9) --- *)

let test_run_step_budget_watchdog () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:2 () in
  let spins = ref 0 in
  Smp.spawn ~vcpu:0 smp ~name:"spinner" (fun () ->
      while true do
        incr spins;
        Sched.yield ()
      done);
  (try
     Smp.run ~max_steps:64 smp;
     Alcotest.fail "runaway schedule not stopped"
   with T.Cvm_halted msg ->
     (* the "chaos watchdog" prefix is what maps this halt to the
        Watchdog class in the shared chaos/explore classifier *)
     Alcotest.(check bool) "classifiable as a watchdog trip" true
       (String.length msg >= 14 && String.sub msg 0 14 = "chaos watchdog"));
  Alcotest.(check bool) "stopped at the budget" true (!spins <= 64);
  Alcotest.(check bool) "budget actually consumed" true (!spins > 32)

(* --- distributed TLB shootdown: costs and staleness --- *)

let test_tlb_shootdown () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:3 () in
  let platform = sys.B.platform in
  let initiator = Smp.vcpu smp 0 in
  (* warm an AP's TLB with a fabricated translation *)
  let tlb1 = (Smp.vcpu smp 1).V.tlb in
  let lookup () =
    Sevsnp.Tlb.lookup tlb1 ~vapage:5 ~root:3 Sevsnp.Types.Read Sevsnp.Types.Cpl0
      Sevsnp.Types.Vmpl0
  in
  Sevsnp.Tlb.fill tlb1 ~vapage:5 ~root:3 ~gpfn:42 ~flags:1 ~rmp:0xF;
  Alcotest.(check int) "entry cached" 42 (lookup ());
  let before = Array.init 3 (fun i -> C.read_bucket (Smp.vcpu smp i).V.counter C.Kernel) in
  P.tlb_shootdown_distributed platform ~initiator;
  let delta i = C.read_bucket (Smp.vcpu smp i).V.counter C.Kernel - before.(i) in
  (* initiator: local flush + send/ack per remote; remotes: one handler *)
  Alcotest.(check int) "initiator cost"
    (C.tlb_local_flush + (2 * (C.ipi_send + C.ipi_ack)))
    (delta 0);
  Alcotest.(check int) "remote 1 handler cost" C.ipi_handler (delta 1);
  Alcotest.(check int) "remote 2 handler cost" C.ipi_handler (delta 2);
  Alcotest.(check int) "remote entry invalidated" (-1) (lookup ())

let test_single_vcpu_shootdown_unchanged () =
  (* with one VCPU the distributed model degenerates to the pre-SMP
     flat local-flush charge: the single-VCPU E2/E3 numbers depend on
     this *)
  let sys = boot () in
  let vcpu = sys.B.vcpu in
  let before = C.read_bucket vcpu.V.counter C.Kernel in
  P.tlb_shootdown_distributed sys.B.platform ~initiator:vcpu;
  Alcotest.(check int) "exactly the flat 500-cycle flush" C.tlb_local_flush
    (C.read_bucket vcpu.V.counter C.Kernel - before)

let test_ipi_charges () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:2 () in
  let a = Smp.vcpu smp 0 and b = Smp.vcpu smp 1 in
  let ka = C.read_bucket a.V.counter C.Kernel and kb = C.read_bucket b.V.counter C.Kernel in
  Sevsnp.Ipi.send ~initiator:a ~target:b Sevsnp.Ipi.Reschedule;
  Alcotest.(check int) "initiator pays send+ack" (C.ipi_send + C.ipi_ack)
    (C.read_bucket a.V.counter C.Kernel - ka);
  Alcotest.(check int) "target pays the handler" C.ipi_handler
    (C.read_bucket b.V.counter C.Kernel - kb)

(* --- Veil-Scope: wait spans and steal counts under the interleaver --- *)

module Tr = Obs.Trace
module Mon = Veil_core.Monitor

(* The work-stealing shape (a blocked waiter on VCPU 1 plus an
   overloaded VCPU 0) with the platform tracer armed: the run must
   leave Runqueue and Blocked_poll wait spans in the ring, and — since
   the schedule is a pure function of policy + seed — the journal, the
   steal count, and the wait-span population must replay identically. *)
let run_traced policy =
  let sys = boot () in
  let smp = Smp.bring_up ~policy sys ~nvcpus:2 () in
  let tr = sys.B.platform.P.tracer in
  Tr.clear tr;
  Tr.set_enabled tr true;
  let done_ = ref 0 and flag = ref false in
  Smp.spawn ~vcpu:1 smp ~name:"waiter" (fun () ->
      Sched.block_until (fun () -> !flag);
      incr done_);
  for i = 0 to 6 do
    Smp.spawn ~vcpu:0 smp
      ~name:(Printf.sprintf "pinned-%d" i)
      (fun () ->
        for _ = 1 to 4 do
          Sched.yield ()
        done;
        if i = 6 then flag := true;
        incr done_)
  done;
  Smp.run smp;
  Tr.set_enabled tr false;
  let count reason =
    List.length
      (List.filter (fun e -> e.Tr.ev_kind = Tr.Wait reason) (Tr.events tr))
  in
  Alcotest.(check int) "all tasks finished" 8 !done_;
  (Smp.journal smp, Smp.steals smp, count Tr.Runqueue, count Tr.Blocked_poll)

let test_wait_spans_under_interleaver () =
  let _, steals, runq, blocked = run_traced Hv.Interleave.Round_robin in
  Alcotest.(check bool) "idle vcpu stole work" true (steals > 0);
  Alcotest.(check bool)
    (Printf.sprintf "runqueue waits recorded (%d)" runq)
    true (runq > 0);
  Alcotest.(check bool)
    (Printf.sprintf "blocked_poll waits recorded (%d)" blocked)
    true (blocked > 0);
  let j1, s1, r1, b1 = run_traced (Hv.Interleave.Seeded 1911) in
  let j2, s2, r2, b2 = run_traced (Hv.Interleave.Seeded 1911) in
  Alcotest.(check string) "replay: identical journal" j1 j2;
  Alcotest.(check int) "replay: identical steals" s1 s2;
  Alcotest.(check int) "replay: identical runqueue spans" r1 r2;
  Alcotest.(check int) "replay: identical blocked spans" b1 b2;
  Alcotest.(check bool) "seeded run also steals" true (s1 > 0)

(* --- Veil-Scope: the serialized-monitor entry ledger --- *)

(* One VCPU: the single-server queue can never see overlapping
   arrivals, so queueing is identically zero while service (busy)
   cycles accrue per request tag. *)
let test_monitor_ledger_single_vcpu () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:1 () in
  let vcpu = Smp.vcpu smp 0 in
  for i = 1 to 5 do
    ignore
      (Mon.os_call sys.B.mon vcpu
         (Veil_core.Idcb.R_tpm_extend { pcr = 0; data = Bytes.make 8 (Char.chr (64 + i)) }))
  done;
  let ws = Mon.wait_stats sys.B.mon in
  Alcotest.(check int) "five ledger entries" 5 ws.Mon.ws_entries;
  Alcotest.(check bool) "service cycles accrue" true (ws.Mon.ws_busy_cycles > 0);
  Alcotest.(check int) "no queueing at 1 vcpu" 0 ws.Mon.ws_queued_cycles;
  match List.find_opt (fun (n, _, _, _) -> n = "tpm_extend") ws.Mon.ws_by_type with
  | Some (_, entries, busy, queued) ->
      Alcotest.(check int) "per-tag entries" 5 entries;
      Alcotest.(check bool) "per-tag busy" true (busy > 0);
      Alcotest.(check int) "per-tag queued" 0 queued
  | None -> Alcotest.fail "tpm_extend missing from ws_by_type"

(* Two VCPUs: advance VCPU 0's clock far ahead so it holds the machine
   clock stationary, then issue back-to-back calls from the AP — the
   second arrives (on the machine clock) inside the first's service
   window and must be charged queueing delay. *)
let test_monitor_ledger_queueing () =
  let sys = boot () in
  let smp = Smp.bring_up sys ~nvcpus:2 () in
  V.charge (Smp.vcpu smp 0) C.Compute 5_000_000;
  let ap = Smp.vcpu smp 1 in
  ignore (Mon.os_call sys.B.mon ap (Veil_core.Idcb.R_tpm_extend { pcr = 1; data = Bytes.make 4 'a' }));
  ignore (Mon.os_call sys.B.mon ap (Veil_core.Idcb.R_tpm_extend { pcr = 1; data = Bytes.make 4 'b' }));
  let ws = Mon.wait_stats sys.B.mon in
  Alcotest.(check int) "two ledger entries" 2 ws.Mon.ws_entries;
  Alcotest.(check bool)
    (Printf.sprintf "second call queued behind the first (%d cycles)" ws.Mon.ws_queued_cycles)
    true
    (ws.Mon.ws_queued_cycles > 0);
  (* the queueing delay is (at most) the first call's service time *)
  Alcotest.(check bool) "queued <= busy" true (ws.Mon.ws_queued_cycles <= ws.Mon.ws_busy_cycles);
  match List.find_opt (fun (n, _, _, _) -> n = "tpm_extend") ws.Mon.ws_by_type with
  | Some (_, entries, _, queued) ->
      Alcotest.(check int) "per-tag entries" 2 entries;
      Alcotest.(check bool) "per-tag queueing attributed" true (queued > 0)
  | None -> Alcotest.fail "tpm_extend missing from ws_by_type"

(* --- the malicious-hypervisor AP-start oracle stays blocked --- *)

let test_ap_attack_blocked () =
  let atk =
    match
      List.find_opt
        (fun a -> Veil_attacks.Attacks.name a = "ap-start-tampered-vmsa")
        (Veil_attacks.Attacks.all ())
    with
    | Some a -> a
    | None -> Alcotest.fail "ap-start-tampered-vmsa missing from the suite"
  in
  let o = Veil_attacks.Attacks.run atk in
  Alcotest.(check bool)
    (Printf.sprintf "blocked (%s)" (Veil_attacks.Attacks.outcome_to_string o))
    true
    (Veil_attacks.Attacks.is_blocked o)

let suite =
  [
    ("ap bring-up via monitor", `Quick, test_bring_up);
    ("ap bring-up refusals", `Quick, test_bring_up_refusals);
    ("work stealing", `Quick, test_work_stealing);
    ("seeded interleave determinism", `Quick, test_determinism);
    ("run ~max_steps trips the schedule watchdog", `Quick, test_run_step_budget_watchdog);
    ("distributed tlb shootdown", `Quick, test_tlb_shootdown);
    ("single-vcpu shootdown unchanged", `Quick, test_single_vcpu_shootdown_unchanged);
    ("ipi cost split", `Quick, test_ipi_charges);
    ("wait spans under the interleaver", `Quick, test_wait_spans_under_interleaver);
    ("monitor ledger: 1 vcpu never queues", `Quick, test_monitor_ledger_single_vcpu);
    ("monitor ledger: overlap queues", `Quick, test_monitor_ledger_queueing);
    ("ap-start attack blocked", `Quick, test_ap_attack_blocked);
  ]
