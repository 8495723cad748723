(* Veil-Ring tests (ISSUE 7): SPSC ring edge cases (wraparound,
   backpressure), monitor-side placement checks, batched service with
   (batch_seq, slot) replay suppression, chaos slot corruption, the
   kernel's watermark-driven deferral, and the 1-VCPU schedule
   identity of ringed vs unbatched runs. *)

module B = Veil_core.Boot
module M = Veil_core.Monitor
module R = Veil_core.Ring
module I = Veil_core.Idcb
module FP = Chaos.Fault_plan
module P = Sevsnp.Platform
module K = Guest_kernel.Kernel
module S = Guest_kernel.Sysno

let mval sys name = Obs.Metrics.value (Obs.Metrics.counter sys.B.platform.P.metrics name)

let audit_rec i =
  I.R_log_append
    { Guest_kernel.Audit.seq = i; cycles = 0; sys = S.Open; pid = 1; detail = "t_ring" }

(* --- the ring itself (no boot needed) --- *)

let test_wraparound () =
  let ring = R.create ~gpfn:100 ~vcpu_id:0 ~slots:4 in
  Alcotest.(check bool) "fresh ring empty" true (R.is_empty ring);
  (* three rounds of 3 submissions on a 4-slot ring: head crosses the
     slot boundary twice, logical offsets must keep mapping through
     the mask to the right slots *)
  for round = 0 to 2 do
    for i = 0 to 2 do
      Alcotest.(check bool) "submit accepted" true
        (R.submit ring (I.R_tpm_extend { pcr = (3 * round) + i; data = Bytes.create 1 }))
    done;
    Alcotest.(check int) "three pending" 3 (R.pending ring);
    for i = 0 to 2 do
      (match R.peek ring i with
      | I.R_tpm_extend { pcr; _ } ->
          Alcotest.(check int) "peek sees the submitted slot" ((3 * round) + i) pcr
      | _ -> Alcotest.fail "wrong request in slot");
      R.set_response ring i I.Resp_ok
    done;
    R.consume ring;
    Alcotest.(check bool) "consumed empty" true (R.is_empty ring)
  done

let test_backpressure () =
  let ring = R.create ~gpfn:100 ~vcpu_id:0 ~slots:4 in
  for i = 0 to 3 do
    Alcotest.(check bool) "fills" true (R.submit ring (I.R_tpm_extend { pcr = i; data = Bytes.create 1 }))
  done;
  Alcotest.(check bool) "full" true (R.is_full ring);
  Alcotest.(check bool) "submit refused on full ring" false
    (R.submit ring (I.R_tpm_extend { pcr = 9; data = Bytes.create 1 }));
  Alcotest.(check int) "refused submit left pending intact" 4 (R.pending ring);
  R.consume ring;
  Alcotest.(check bool) "drained ring accepts again" true
    (R.submit ring (I.R_tpm_extend { pcr = 5; data = Bytes.create 1 }))

let test_bad_slot_counts () =
  Alcotest.check_raises "slots must be a power of two" (Invalid_argument "Ring.create: slots must be a power of two in [2, 1024]")
    (fun () -> ignore (R.create ~gpfn:1 ~vcpu_id:0 ~slots:3))

(* --- monitor registration: IDCB placement rule (§5.2) --- *)

let test_placement_checked () =
  let sys = B.boot_veil ~npages:2048 ~seed:5 () in
  let protected_gpfn = sys.B.layout.Veil_core.Layout.mon_image.Veil_core.Layout.lo in
  (match M.register_ring sys.B.mon (R.create ~gpfn:protected_gpfn ~vcpu_id:0 ~slots:8) with
  | Ok () -> Alcotest.fail "ring on VeilMon memory must be refused"
  | Error _ -> ());
  let os_gpfn = K.alloc_frame sys.B.kernel in
  (match M.register_ring sys.B.mon (R.create ~gpfn:os_gpfn ~vcpu_id:0 ~slots:8) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("ring on OS memory refused: " ^ e));
  (match M.register_ring sys.B.mon (R.create ~gpfn:os_gpfn ~vcpu_id:63 ~slots:8) with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("last provisioned vcpu id refused: " ^ e));
  match M.register_ring sys.B.mon (R.create ~gpfn:os_gpfn ~vcpu_id:64 ~slots:8) with
  | Ok () -> Alcotest.fail "out-of-range vcpu id must be refused"
  | Error _ -> ()

(* --- one Monitor+Switch entry per batch --- *)

let test_batch_amortizes_switches () =
  let sys = B.boot_veil ~npages:2048 ~seed:5 () in
  B.enable_rings sys ();
  let ring = Option.get (M.ring_of sys.B.mon ~vcpu_id:0) in
  let vcpu = sys.B.vcpu in
  for i = 1 to 8 do
    Alcotest.(check bool) "submit" true (M.ring_submit sys.B.mon vcpu ring (audit_rec i))
  done;
  let switches0 = (Hypervisor.Hv.stats sys.B.hv).Hypervisor.Hv.domain_switches in
  let served = M.os_call_batch sys.B.mon vcpu ring in
  Alcotest.(check int) "all slots served" 8 served;
  Alcotest.(check int) "one switch pair for the whole batch" 2
    ((Hypervisor.Hv.stats sys.B.hv).Hypervisor.Hv.domain_switches - switches0);
  Alcotest.(check bool) "flush counted" true (mval sys "monitor.ring_flushes" >= 1);
  Alcotest.(check bool) "slots counted" true (mval sys "monitor.ring_slots" >= 8);
  Alcotest.(check bool) "ring retired" true (R.is_empty ring);
  (* the ledger charges the batch, not any single slot *)
  let ws = M.wait_stats sys.B.mon in
  match List.find_opt (fun (tag, _, _, _) -> tag = "ring_flush") ws.M.ws_by_type with
  | Some (_, entries, busy, _) ->
      Alcotest.(check bool) "ring_flush ledger entry" true (entries >= 1 && busy > 0)
  | None -> Alcotest.fail "no ring_flush entries in the wait ledger"

(* --- (batch_seq, slot) replay suppression --- *)

let test_duplicated_batch_replayed_from_cache () =
  let sys = B.boot_veil ~npages:2048 ~seed:5 () in
  B.enable_rings sys ();
  let ring = Option.get (M.ring_of sys.B.mon ~vcpu_id:0) in
  let vcpu = sys.B.vcpu in
  for i = 1 to 3 do
    ignore (M.ring_submit sys.B.mon vcpu ring (audit_rec i))
  done;
  let count0 = Veil_core.Slog.count sys.B.slog in
  ignore (R.stamp_flush ring);
  M.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Sec;
  let n1 = M.serve_batch sys.B.mon vcpu ring in
  Alcotest.(check int) "batch served" 3 n1;
  for i = 0 to 2 do
    Alcotest.(check bool) "slot ok" true (R.response_at ring i = I.Resp_ok)
  done;
  let replays0 = mval sys "monitor.replays_suppressed" in
  (* A duplicated hv relay of the same batch re-enters the serving
     path with the same batch sequence: the monitor must answer from
     the cached per-slot responses without re-executing any slot. *)
  let n2 = M.serve_batch sys.B.mon vcpu ring in
  M.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Unt;
  Alcotest.(check int) "replay reports the same count" 3 n2;
  Alcotest.(check int) "every slot counted as a suppressed replay" (replays0 + 3)
    (mval sys "monitor.replays_suppressed");
  Alcotest.(check int) "log appends not re-executed" (count0 + 3)
    (Veil_core.Slog.count sys.B.slog);
  for i = 0 to 2 do
    Alcotest.(check bool) "cached response survives the dup" true
      (R.response_at ring i = I.Resp_ok)
  done

(* Same duplication, driven by the chaos hv.relay dup site: with
   Relay_dup armed the deterministic ringed run must still replay to
   the identical journal (suppression keeps the schedule stable).
   This syscall run takes no interrupt relay, so the site never fires;
   the plan's step count only shows that it is armed on the guest. *)
let test_ringed_run_deterministic_under_relay_dup () =
  let measure () =
    let plan = FP.create ~seed:11 () in
    FP.set_site plan FP.Relay_dup ~prob:0.5 ();
    let sys = B.boot_veil ~npages:4096 ~seed:5 ~chaos:plan () in
    let smp =
      Veil_core.Smp.bring_up
        ~policy:(Hypervisor.Hv.Interleave.Seeded Workloads.Escale.inter_seed)
        sys ~nvcpus:2 ()
    in
    B.enable_rings sys ();
    let ops = Workloads.Escale.syscall_work ~ops_total:128 sys smp in
    Veil_core.Smp.run smp;
    B.flush_rings sys;
    (Veil_core.Smp.journal smp, ops, FP.steps plan)
  in
  let j1, ops1, steps1 = measure () in
  let j2, ops2, steps2 = measure () in
  Alcotest.(check string) "same plan, same ringed schedule" j1 j2;
  Alcotest.(check int) "same ops" ops1 ops2;
  Alcotest.(check bool) "plan armed on the guest" true (steps1 > 0 && steps1 = steps2)

(* --- chaos: ring_slot_corrupt is degraded, never silent --- *)

let test_slot_corruption_rejected_not_poisoning () =
  let plan = FP.create ~seed:7 () in
  FP.set_site plan FP.Ring_slot_corrupt ~max_hits:1 ~prob:1.0 ();
  let sys = B.boot_veil ~npages:2048 ~seed:5 ~chaos:plan () in
  B.enable_rings sys ();
  let ring = Option.get (M.ring_of sys.B.mon ~vcpu_id:0) in
  let vcpu = sys.B.vcpu in
  for i = 1 to 3 do
    ignore (M.ring_submit sys.B.mon vcpu ring (audit_rec i))
  done;
  ignore (R.stamp_flush ring);
  M.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Sec;
  let served = M.serve_batch sys.B.mon vcpu ring in
  M.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Unt;
  Alcotest.(check int) "whole batch processed" 3 served;
  Alcotest.(check int) "one corruption fired" 1 (FP.hits plan FP.Ring_slot_corrupt);
  (match R.response_at ring 0 with
  | I.Resp_error _ -> ()
  | _ -> Alcotest.fail "corrupted slot must be rejected");
  for i = 1 to 2 do
    Alcotest.(check bool) "rest of the batch unharmed" true (R.response_at ring i = I.Resp_ok)
  done;
  Alcotest.(check int) "rejection journaled" 1 (mval sys "monitor.ring_slot_rejected")

(* --- mixed batch: any VMPL-0 slot pulls service to Dom_MON --- *)

let test_mixed_batch_serves_at_mon () =
  let sys = B.boot_veil ~npages:2048 ~seed:5 () in
  B.enable_rings sys ();
  let ring = Option.get (M.ring_of sys.B.mon ~vcpu_id:0) in
  let vcpu = sys.B.vcpu in
  let gpfn = K.alloc_frame sys.B.kernel in
  ignore (M.ring_submit sys.B.mon vcpu ring (audit_rec 1));
  ignore (M.ring_submit sys.B.mon vcpu ring (I.R_pvalidate { gpfn; to_private = true }));
  ignore (R.stamp_flush ring);
  (* a batch with an R_pvalidate slot must be served at Dom_MON (the
     more privileged domain also runs the Dom_SEC dispatch) *)
  M.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Mon;
  let served = M.serve_batch sys.B.mon vcpu ring in
  M.domain_switch sys.B.mon vcpu ~target:Veil_core.Privdom.Unt;
  Alcotest.(check int) "both slots served" 2 served;
  Alcotest.(check bool) "log append ok in the mixed batch" true
    (R.response_at ring 0 = I.Resp_ok);
  (match R.response_at ring 1 with
  | I.Resp_none -> Alcotest.fail "pvalidate slot left unserved"
  | _ -> ())

(* --- kernel deferral: syscall-tail watermark flush + barrier --- *)

let test_kernel_defers_and_flushes () =
  let sys = B.boot_veil ~npages:2048 ~seed:5 () in
  let kernel = sys.B.kernel in
  B.enable_rings ~slots:8 sys ();
  Alcotest.(check bool) "rings enabled" true (B.rings_enabled sys);
  Guest_kernel.Audit.set_rules (K.audit kernel) [ S.Open ];
  let count0 = Veil_core.Slog.count sys.B.slog in
  let proc = K.spawn kernel in
  for i = 1 to 5 do
    match
      K.invoke kernel proc S.Open
        [ Guest_kernel.Ktypes.Str (Printf.sprintf "/tmp/ring-%d" i);
          Guest_kernel.Ktypes.Int 0x42; Guest_kernel.Ktypes.Int 0o644 ]
    with
    | Guest_kernel.Ktypes.RInt fd -> ignore (K.invoke kernel proc S.Close [ Guest_kernel.Ktypes.Int fd ])
    | r -> Alcotest.fail (Format.asprintf "open: %a" Guest_kernel.Ktypes.pp_ret r)
  done;
  (* watermark = slots/2 = 4: the 4th deferred record triggered a
     syscall-tail flush, the 5th is still riding the ring *)
  Alcotest.(check bool) "watermark flushed a batch" true (mval sys "monitor.ring_flushes" >= 1);
  Alcotest.(check bool) "some records landed pre-barrier" true
    (Veil_core.Slog.count sys.B.slog >= count0 + 4);
  B.flush_rings sys;
  Alcotest.(check int) "barrier drains the tail" (count0 + 5) (Veil_core.Slog.count sys.B.slog);
  let ring = Option.get (M.ring_of sys.B.mon ~vcpu_id:0) in
  Alcotest.(check bool) "nothing pending after the barrier" true (R.is_empty ring)

(* --- 1-VCPU ringed run == unbatched schedule, byte for byte --- *)

let test_one_vcpu_schedule_identical () =
  let spawn_work = Workloads.Escale.syscall_work ~ops_total:256 in
  let plain, _ = Workloads.Escale.measure ~nvcpus:1 ~seed:5 ~spawn_work () in
  let ringed, _ = Workloads.Escale.measure ~rings:true ~nvcpus:1 ~seed:5 ~spawn_work () in
  Alcotest.(check string) "identical 1-VCPU schedule journal"
    plain.Workloads.Escale.es_journal ringed.Workloads.Escale.es_journal;
  Alcotest.(check int) "identical op count" plain.Workloads.Escale.es_ops
    ringed.Workloads.Escale.es_ops;
  (* batching must help even a single VCPU: fewer Monitor+Switch
     cycles for the same schedule *)
  Alcotest.(check bool) "ringed monitor share strictly lower" true
    (ringed.Workloads.Escale.es_mon < plain.Workloads.Escale.es_mon)

let suite =
  [
    Alcotest.test_case "ring: wraparound across the slot boundary" `Quick test_wraparound;
    Alcotest.test_case "ring: full-ring backpressure" `Quick test_backpressure;
    Alcotest.test_case "ring: slot count validation" `Quick test_bad_slot_counts;
    Alcotest.test_case "monitor: ring placement checked like an IDCB" `Quick
      test_placement_checked;
    Alcotest.test_case "batch: one switch pair, ledger charges the batch" `Quick
      test_batch_amortizes_switches;
    Alcotest.test_case "batch: duplicated batch answered from cache" `Quick
      test_duplicated_batch_replayed_from_cache;
    Alcotest.test_case "batch: ringed schedule deterministic under relay dup" `Quick
      test_ringed_run_deterministic_under_relay_dup;
    Alcotest.test_case "chaos: corrupt slot rejected without poisoning the batch" `Quick
      test_slot_corruption_rejected_not_poisoning;
    Alcotest.test_case "batch: mixed batch serves at Dom_MON" `Quick
      test_mixed_batch_serves_at_mon;
    Alcotest.test_case "kernel: watermark deferral and flush barrier" `Quick
      test_kernel_defers_and_flushes;
    Alcotest.test_case "1-VCPU ringed run matches the unbatched schedule" `Quick
      test_one_vcpu_schedule_identical;
  ]
