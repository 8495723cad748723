(* Veil core tests: privilege domains, boot, VeilMon, the three
   protected services, and the remote secure channel. *)

module T = Sevsnp.Types
module P = Sevsnp.Platform
module V = Veil_core
module Kern = Guest_kernel.Kernel
module S = Guest_kernel.Sysno
module K = Guest_kernel.Ktypes

let boot () = V.Boot.boot_veil ~npages:2048 ~seed:23 ()

(* --- privilege domains --- *)

let test_privdom () =
  Alcotest.(check int) "four domains" 4 (List.length V.Privdom.all);
  Alcotest.(check bool) "Mon is VMPL0+CPL0" true
    (V.Privdom.vmpl V.Privdom.Mon = T.Vmpl0 && V.Privdom.cpl V.Privdom.Mon = T.Cpl0);
  Alcotest.(check bool) "Enc is VMPL2+CPL3" true
    (V.Privdom.vmpl V.Privdom.Enc = T.Vmpl2 && V.Privdom.cpl V.Privdom.Enc = T.Cpl3);
  Alcotest.(check bool) "Mon > Sec > Enc > Unt" true
    (V.Privdom.more_privileged V.Privdom.Mon V.Privdom.Sec
    && V.Privdom.more_privileged V.Privdom.Sec V.Privdom.Enc
    && V.Privdom.more_privileged V.Privdom.Enc V.Privdom.Unt);
  List.iter
    (fun d -> Alcotest.(check bool) "roundtrip" true (V.Privdom.equal d (V.Privdom.of_vmpl (V.Privdom.vmpl d))))
    V.Privdom.all

let test_layout () =
  let l = V.Layout.standard ~npages:4096 () in
  Alcotest.(check int) "covers all frames" 4096 l.V.Layout.total_frames;
  (* regions tile without overlap *)
  let regions =
    [ l.V.Layout.mon_image; l.V.Layout.kernel_text; l.V.Layout.kernel_data; l.V.Layout.mon_heap;
      l.V.Layout.svc_region; l.V.Layout.log_region; l.V.Layout.idcb_region; l.V.Layout.kernel_free;
      l.V.Layout.vmsa_region ]
  in
  let sorted = List.sort (fun a b -> compare a.V.Layout.lo b.V.Layout.lo) regions in
  let rec contiguous = function
    | a :: (b :: _ as rest) -> a.V.Layout.hi = b.V.Layout.lo && contiguous rest
    | [ last ] -> last.V.Layout.hi = 4096
    | [] -> false
  in
  Alcotest.(check bool) "contiguous tiling" true ((List.hd sorted).V.Layout.lo = 0 && contiguous sorted);
  Alcotest.check_raises "too small" (Invalid_argument "Layout.standard: need at least 1024 frames")
    (fun () -> ignore (V.Layout.standard ~npages:512 ()))

(* --- boot & protection sweep --- *)

let test_boot_protections () =
  let sys = boot () in
  let platform = sys.V.Boot.platform in
  let l = sys.V.Boot.layout in
  let perms gpfn vmpl = Sevsnp.Rmp.perms_of platform.P.rmp gpfn vmpl in
  (* OS memory: vmpl3 full access, vmpl1 rw, vmpl2 none *)
  let f = l.V.Layout.kernel_free.V.Layout.lo + 5 in
  Alcotest.(check bool) "os frame vmpl3 all" true (Sevsnp.Perm.equal (perms f T.Vmpl3) Sevsnp.Perm.all);
  Alcotest.(check bool) "os frame vmpl1 rw" true (Sevsnp.Perm.equal (perms f T.Vmpl1) Sevsnp.Perm.rw);
  Alcotest.(check bool) "os frame vmpl2 none" true (Sevsnp.Perm.equal (perms f T.Vmpl2) Sevsnp.Perm.none);
  (* monitor heap dark to everyone below vmpl0 *)
  let m = l.V.Layout.mon_heap.V.Layout.lo in
  List.iter
    (fun vmpl ->
      Alcotest.(check bool) "mon frame dark" true (Sevsnp.Perm.equal (perms m vmpl) Sevsnp.Perm.none))
    [ T.Vmpl1; T.Vmpl2; T.Vmpl3 ];
  (* kernel text under KCI: no write, supervisor exec only *)
  let kt = perms l.V.Layout.kernel_text.V.Layout.lo T.Vmpl3 in
  Alcotest.(check bool) "kci text: r-x supervisor" true
    (kt.Sevsnp.Perm.read && (not kt.Sevsnp.Perm.write) && kt.Sevsnp.Perm.super_exec);
  let kd = perms l.V.Layout.kernel_data.V.Layout.lo T.Vmpl3 in
  Alcotest.(check bool) "kci data: rw, no supervisor exec" true
    (kd.Sevsnp.Perm.read && kd.Sevsnp.Perm.write && not kd.Sevsnp.Perm.super_exec)

let test_boot_cost_breakdown () =
  let sys = boot () in
  let native = V.Boot.boot_native ~npages:2048 ~seed:23 () in
  let delta = sys.V.Boot.boot_cycles - native.V.Boot.n_boot_cycles in
  Alcotest.(check bool) "veil boot costs more" true (delta > 0);
  (* the RMPADJUST sweep (~6400/page over OS+service memory) dominates *)
  let mon_cycles =
    Sevsnp.Cycles.read_bucket sys.V.Boot.vcpu.Sevsnp.Vcpu.counter Sevsnp.Cycles.Monitor
  in
  Alcotest.(check bool) "monitor work > 60% of delta" true (mon_cycles * 10 > delta * 6)

(* --- monitor: os_call, delegation, sanitizer --- *)

let test_os_call_roundtrip () =
  let sys = boot () in
  let target = Kern.alloc_frame sys.V.Boot.kernel in
  (match V.Monitor.os_call sys.V.Boot.mon sys.V.Boot.vcpu (V.Idcb.R_pvalidate { gpfn = target; to_private = false }) with
  | V.Idcb.Resp_ok -> ()
  | V.Idcb.Resp_error e -> Alcotest.fail e
  | _ -> Alcotest.fail "unexpected response");
  Alcotest.(check bool) "page now shared" true (Sevsnp.Rmp.state sys.V.Boot.platform.P.rmp target = Sevsnp.Rmp.Shared);
  Alcotest.(check bool) "back at Dom_UNT" true (T.equal_vmpl (Sevsnp.Vcpu.vmpl sys.V.Boot.vcpu) T.Vmpl3);
  Alcotest.(check int) "delegation counted" 1 (V.Monitor.stats sys.V.Boot.mon).V.Monitor.delegated_pvalidates

let test_os_call_cost () =
  let sys = boot () in
  let vcpu = sys.V.Boot.vcpu in
  let before = Sevsnp.Vcpu.rdtsc vcpu in
  ignore (V.Monitor.os_call sys.V.Boot.mon vcpu (V.Idcb.R_pvalidate { gpfn = 900; to_private = true }));
  let cost = Sevsnp.Vcpu.rdtsc vcpu - before in
  Alcotest.(check bool) "round trip ~ 2 switches (14270) + work" true (cost >= 14270 && cost < 14270 + 8000)

let test_sanitizer_rejects () =
  let sys = boot () in
  let mon_gpa = T.gpa_of_gpfn sys.V.Boot.layout.V.Layout.mon_heap.V.Layout.lo in
  (match V.Monitor.os_call sys.V.Boot.mon sys.V.Boot.vcpu (V.Idcb.R_log_fetch { dest_gpa = mon_gpa; max = 64 }) with
  | V.Idcb.Resp_error _ -> ()
  | _ -> Alcotest.fail "sanitizer must reject protected destinations");
  Alcotest.(check int) "rejection counted" 1 (V.Monitor.stats sys.V.Boot.mon).V.Monitor.sanitizer_rejections

let test_protected_registry () =
  let sys = boot () in
  let mon = sys.V.Boot.mon in
  Alcotest.(check bool) "mon heap protected" true
    (V.Monitor.frame_is_protected mon sys.V.Boot.layout.V.Layout.mon_heap.V.Layout.lo);
  Alcotest.(check bool) "os memory not protected" false
    (V.Monitor.frame_is_protected mon sys.V.Boot.layout.V.Layout.kernel_free.V.Layout.lo);
  V.Monitor.add_protected_frames mon ~owner:V.Privdom.Enc [ 1500 ];
  Alcotest.(check bool) "dynamic add" true (V.Monitor.frame_is_protected mon 1500);
  V.Monitor.remove_protected_frames mon [ 1500 ];
  Alcotest.(check bool) "dynamic remove" false (V.Monitor.frame_is_protected mon 1500)

(* --- VeilS-KCI --- *)

let test_kci_module_load () =
  let sys = boot () in
  let kernel = sys.V.Boot.kernel in
  let img = Guest_kernel.Kmodule.build (Kern.rng kernel) ~name:"kcimod" ~text_size:4728 ~data_size:512
      ~symbols:[ "ksym_2" ] in
  Kern.vendor_sign_module kernel img;
  (match Kern.load_module kernel img with
  | Ok loaded ->
      let text = List.hd loaded.Guest_kernel.Kmodule.text_gpfns in
      let p = Sevsnp.Rmp.perms_of sys.V.Boot.platform.P.rmp text T.Vmpl3 in
      Alcotest.(check bool) "module text write-protected by RMP" true
        (p.Sevsnp.Perm.read && (not p.Sevsnp.Perm.write) && p.Sevsnp.Perm.super_exec);
      Alcotest.(check int) "kci counted" 1 (V.Kci.stats sys.V.Boot.kci).V.Kci.modules_loaded;
      (* unload restores access *)
      (match Kern.unload_module kernel "kcimod" with Ok () -> () | Error e -> Alcotest.fail e);
      let p2 = Sevsnp.Rmp.perms_of sys.V.Boot.platform.P.rmp text T.Vmpl3 in
      Alcotest.(check bool) "restored on unload" true (Sevsnp.Perm.equal p2 Sevsnp.Perm.all)
  | Error e -> Alcotest.fail e)

let test_kci_rejects_bad_signature () =
  let sys = boot () in
  let kernel = sys.V.Boot.kernel in
  let img = Guest_kernel.Kmodule.build (Kern.rng kernel) ~name:"bad" ~text_size:4096 ~data_size:0 ~symbols:[] in
  Kern.vendor_sign_module kernel img;
  Bytes.set img.Guest_kernel.Kmodule.text 7 'X' (* tamper after signing *);
  (match Kern.load_module kernel img with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "KCI accepted a tampered module");
  Alcotest.(check int) "rejection counted" 1 (V.Kci.stats sys.V.Boot.kci).V.Kci.rejected

let test_kci_rejects_unknown_symbol () =
  let sys = boot () in
  let kernel = sys.V.Boot.kernel in
  let img = Guest_kernel.Kmodule.build (Kern.rng kernel) ~name:"u" ~text_size:4096 ~data_size:0
      ~symbols:[ "not_a_kernel_symbol" ] in
  Kern.vendor_sign_module kernel img;
  match Kern.load_module kernel img with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "KCI relocated against an unknown symbol"

(* --- VeilS-LOG --- *)

let run_audited_syscalls sys n =
  let kernel = sys.V.Boot.kernel in
  Guest_kernel.Audit.set_rules (Kern.audit kernel) [ S.Open ];
  let proc = Kern.spawn kernel in
  for i = 0 to n - 1 do
    ignore (Kern.invoke kernel proc S.Open [ K.Str (Printf.sprintf "/tmp/f%d" i); K.Int 0x42; K.Int 0o644 ])
  done

let test_slog_append_and_read () =
  let sys = boot () in
  run_audited_syscalls sys 5;
  let slog = sys.V.Boot.slog in
  Alcotest.(check int) "five protected entries" 5 (V.Slog.count slog);
  let lines = V.Slog.read_all slog in
  Alcotest.(check int) "read back" 5 (List.length lines);
  Alcotest.(check bool) "chain verifies" true
    (V.Slog.verify_chain ~lines ~digest:(V.Slog.chain_digest slog));
  Alcotest.(check bool) "tampered lines fail the chain" false
    (V.Slog.verify_chain ~lines:("forged" :: List.tl lines) ~digest:(V.Slog.chain_digest slog))

(* Every chain step runs on the log's one reused context.  After N
   appends the head must equal a chain of one-shot digests over the
   stored lines and [verify_chain] must agree, while a forged or a
   dropped line still breaks it. *)
let test_slog_chain_on_reused_context () =
  List.iter
    (fun n ->
      let sys = boot () in
      run_audited_syscalls sys n;
      let slog = sys.V.Boot.slog in
      let lines = V.Slog.read_all slog and digest = V.Slog.chain_digest slog in
      let tag = Printf.sprintf "%d appends" n in
      Alcotest.(check int) (tag ^ ": lines stored") n (List.length lines);
      let one_shot =
        List.fold_left
          (fun prev line -> Veil_crypto.Sha256.digest_string (Bytes.to_string prev ^ line))
          (Bytes.make 32 '\000') lines
      in
      Alcotest.(check bool) (tag ^ ": head = one-shot chain") true (Bytes.equal one_shot digest);
      Alcotest.(check bool) (tag ^ ": chain verifies") true (V.Slog.verify_chain ~lines ~digest);
      if n > 0 then begin
        let forged = List.mapi (fun i l -> if i = n - 1 then l ^ " " else l) lines in
        Alcotest.(check bool) (tag ^ ": forged last line fails") false
          (V.Slog.verify_chain ~lines:forged ~digest);
        Alcotest.(check bool) (tag ^ ": dropped first line fails") false
          (V.Slog.verify_chain ~lines:(List.tl lines) ~digest)
      end)
    [ 0; 1; 2; 37 ]

let test_slog_survives_kernel_tamper () =
  let sys = boot () in
  run_audited_syscalls sys 3;
  (* attacker rewrites the kernel's own buffer — the protected copy is
     unaffected (and the storage region is unwritable, see attacks) *)
  ignore (Guest_kernel.Audit.tamper (Kern.audit sys.V.Boot.kernel) ~seq:1 ~detail:"cover my tracks");
  let protected_lines = V.Slog.read_all sys.V.Boot.slog in
  Alcotest.(check bool) "protected log kept the original" true
    (List.for_all
       (fun l ->
         not
           (let n = String.length "cover my tracks" in
            let rec go i = i + n <= String.length l && (String.sub l i n = "cover my tracks" || go (i + 1)) in
            go 0))
       protected_lines)

let test_slog_capacity () =
  let sys = V.Boot.boot_veil ~npages:2048 ~log_frames:1 ~seed:23 () in
  run_audited_syscalls sys 60 (* each record ~100 bytes; the 4096-byte region fills *);
  let st = V.Slog.stats sys.V.Boot.slog in
  Alcotest.(check bool) "region filled and drops counted" true (st.V.Slog.dropped_full > 0);
  (* Graceful degradation: the dropped records were parked in the
     bounded retry buffer and the degraded state is flagged. *)
  Alcotest.(check bool) "degraded mode entered" true (V.Slog.degraded sys.V.Boot.slog);
  let parked = V.Slog.pending_count sys.V.Boot.slog in
  Alcotest.(check bool) "drops were buffered for retry" true (parked > 0);
  V.Slog.clear sys.V.Boot.slog;
  (* clear drains the retry buffer into the fresh region. *)
  Alcotest.(check int) "cleared region holds the recovered records" parked
    (V.Slog.count sys.V.Boot.slog);
  Alcotest.(check int) "retry buffer drained" 0 (V.Slog.pending_count sys.V.Boot.slog);
  Alcotest.(check bool) "degraded mode exited" false (V.Slog.degraded sys.V.Boot.slog);
  (* Recovered lines still verify against the (restarted) hash chain. *)
  Alcotest.(check bool) "recovered lines chain-verify" true
    (V.Slog.verify_chain
       ~lines:(V.Slog.read_all sys.V.Boot.slog)
       ~digest:(V.Slog.chain_digest sys.V.Boot.slog))

(* --- VeilS-ENC lifecycle --- *)

let mk_enclave sys binary =
  let proc = Kern.spawn sys.V.Boot.kernel in
  match Enclave_sdk.Runtime.create sys ~binary proc with
  | Ok rt -> rt
  | Error e -> Alcotest.fail e

let test_enclave_measurement_reproducible () =
  let sys = boot () in
  let binary = Bytes.of_string (String.init 9000 (fun i -> Char.chr (i mod 200))) in
  let rt = mk_enclave sys binary in
  let expected =
    V.Encsvc.measure_expected ~binary ~npages_heap:16 ~npages_stack:4
      ~base_va:Guest_kernel.Process.enclave_base
  in
  Alcotest.(check bool) "measurement matches remote computation" true
    (Bytes.equal (Enclave_sdk.Runtime.measurement rt) expected);
  Alcotest.(check int) "service counted" 1 (V.Encsvc.stats sys.V.Boot.enc).V.Encsvc.created

let test_enclave_isolation_and_destroy () =
  let sys = boot () in
  let rt = mk_enclave sys (Bytes.make 4096 'D') in
  let enclave = Enclave_sdk.Runtime.enclave rt in
  let frame = Option.get (V.Encsvc.resident_frame enclave Guest_kernel.Process.enclave_base) in
  let p3 = Sevsnp.Rmp.perms_of sys.V.Boot.platform.P.rmp frame T.Vmpl3 in
  Alcotest.(check bool) "OS locked out" true (Sevsnp.Perm.equal p3 Sevsnp.Perm.none);
  let p2 = Sevsnp.Rmp.perms_of sys.V.Boot.platform.P.rmp frame T.Vmpl2 in
  Alcotest.(check bool) "enclave code readable+user-exec" true
    (p2.Sevsnp.Perm.read && p2.Sevsnp.Perm.user_exec && not p2.Sevsnp.Perm.super_exec);
  (* destroy: OS regains the frames, contents scrubbed *)
  (match Enclave_sdk.Runtime.destroy rt with Ok () -> () | Error e -> Alcotest.fail e);
  let p3' = Sevsnp.Rmp.perms_of sys.V.Boot.platform.P.rmp frame T.Vmpl3 in
  Alcotest.(check bool) "OS access restored" true (Sevsnp.Perm.equal p3' Sevsnp.Perm.all);
  let content = P.read sys.V.Boot.platform sys.V.Boot.vcpu (T.gpa_of_gpfn frame) 64 in
  Alcotest.(check bytes) "scrubbed" (Bytes.make 64 '\000') content

let test_enclave_data_roundtrip () =
  let sys = boot () in
  let rt = mk_enclave sys (Bytes.make 4096 'D') in
  Enclave_sdk.Runtime.run rt (fun rt ->
      let heap = Enclave_sdk.Runtime.heap_base rt in
      Enclave_sdk.Runtime.write_data rt ~va:heap (Bytes.of_string "enclave secret");
      Alcotest.(check bytes) "roundtrip via protected tables" (Bytes.of_string "enclave secret")
        (Enclave_sdk.Runtime.read_data rt ~va:heap ~len:14))

let test_enclave_change_perms () =
  let sys = boot () in
  let rt = mk_enclave sys (Bytes.make 4096 'D') in
  let enclave = Enclave_sdk.Runtime.enclave rt in
  let heap = Enclave_sdk.Runtime.heap_base rt in
  Enclave_sdk.Runtime.run rt (fun _ ->
      (match
         V.Encsvc.change_perms sys.V.Boot.enc sys.V.Boot.vcpu enclave ~va:heap ~npages:1
           ~prot:Guest_kernel.Ktypes.prot_r
       with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      Alcotest.(check bool) "still inside after service call" true
        (T.equal_vmpl (Sevsnp.Vcpu.vmpl sys.V.Boot.vcpu) T.Vmpl2));
  let frame = Option.get (V.Encsvc.resident_frame enclave heap) in
  let p2 = Sevsnp.Rmp.perms_of sys.V.Boot.platform.P.rmp frame T.Vmpl2 in
  Alcotest.(check bool) "write revoked in RMP too" true (p2.Sevsnp.Perm.read && not p2.Sevsnp.Perm.write)

let test_enclave_demand_paging () =
  let sys = boot () in
  let rt = mk_enclave sys (Bytes.make 4096 'D') in
  let enclave = Enclave_sdk.Runtime.enclave rt in
  let heap = Enclave_sdk.Runtime.heap_base rt in
  Enclave_sdk.Runtime.run rt (fun rt ->
      Enclave_sdk.Runtime.write_data rt ~va:heap (Bytes.of_string "page me out"));
  let id = V.Encsvc.enclave_id enclave in
  let old_frame = Option.get (V.Encsvc.resident_frame enclave heap) in
  (* OS evicts the page *)
  (match V.Monitor.os_call sys.V.Boot.mon sys.V.Boot.vcpu (V.Idcb.R_enclave_evict { enclave_id = id; va = heap }) with
  | V.Idcb.Resp_ok -> ()
  | V.Idcb.Resp_error e -> Alcotest.fail e
  | _ -> Alcotest.fail "unexpected");
  Alcotest.(check bool) "page gone" true (V.Encsvc.resident_frame enclave heap = None);
  (* the frame now belongs to the OS and holds ciphertext *)
  let cipher = P.read sys.V.Boot.platform sys.V.Boot.vcpu (T.gpa_of_gpfn old_frame) 11 in
  Alcotest.(check bool) "content encrypted" false (Bytes.equal cipher (Bytes.of_string "page me out"));
  (* enclave touching the page faults (#PF -> demand paging) *)
  (try
     Enclave_sdk.Runtime.run rt (fun rt -> ignore (Enclave_sdk.Runtime.read_data rt ~va:heap ~len:4));
     Alcotest.fail "expected page fault"
   with P.Guest_page_fault _ -> ());
  (* OS pages it back in (same frame in this test) *)
  (match
     V.Monitor.os_call sys.V.Boot.mon sys.V.Boot.vcpu
       (V.Idcb.R_enclave_restore { enclave_id = id; va = heap; gpfn = old_frame })
   with
  | V.Idcb.Resp_ok -> ()
  | V.Idcb.Resp_error e -> Alcotest.fail e
  | _ -> Alcotest.fail "unexpected");
  Enclave_sdk.Runtime.run rt (fun rt ->
      Alcotest.(check bytes) "plaintext restored with integrity" (Bytes.of_string "page me out")
        (Enclave_sdk.Runtime.read_data rt ~va:heap ~len:11))

let test_enclave_restore_wrong_page () =
  let sys = boot () in
  let rt = mk_enclave sys (Bytes.make 4096 'D') in
  let enclave = Enclave_sdk.Runtime.enclave rt in
  let heap = Enclave_sdk.Runtime.heap_base rt in
  let id = V.Encsvc.enclave_id enclave in
  ignore (V.Monitor.os_call sys.V.Boot.mon sys.V.Boot.vcpu (V.Idcb.R_enclave_evict { enclave_id = id; va = heap }));
  (* OS hands back garbage instead of the evicted ciphertext *)
  let bogus = Kern.alloc_frame sys.V.Boot.kernel in
  P.write sys.V.Boot.platform sys.V.Boot.vcpu (T.gpa_of_gpfn bogus) (Bytes.make 4096 'Z');
  match
    V.Monitor.os_call sys.V.Boot.mon sys.V.Boot.vcpu
      (V.Idcb.R_enclave_restore { enclave_id = id; va = heap; gpfn = bogus })
  with
  | V.Idcb.Resp_error _ -> ()
  | _ -> Alcotest.fail "integrity/freshness check must reject a wrong page"

(* --- secure channel --- *)

let test_channel_attest_and_logs () =
  let sys = boot () in
  run_audited_syscalls sys 4;
  let pk = Sevsnp.Attestation.platform_public_key sys.V.Boot.platform.P.attestation in
  let launch = Sevsnp.Attestation.launch_measurement sys.V.Boot.platform.P.attestation in
  let user = V.Channel.create (Veil_crypto.Rng.create 2) ~platform_public:pk ~expected_launch:launch in
  Alcotest.(check bool) "not yet connected" false (V.Channel.connected user);
  (match V.Channel.connect user sys.V.Boot.mon sys.V.Boot.vcpu with
  | Ok () -> ()
  | Error e -> Alcotest.fail (V.Channel.error_to_string e));
  Alcotest.(check bool) "session established" true (V.Channel.connected user);
  match V.Channel.fetch_logs user sys.V.Boot.slog sys.V.Boot.vcpu with
  | Ok lines -> Alcotest.(check int) "logs retrieved over channel" 4 (List.length lines)
  | Error e -> Alcotest.fail (V.Channel.error_to_string e)

let test_channel_rejects_wrong_key () =
  let sys = boot () in
  let other_platform = P.create ~npages:1024 ~seed:99 () in
  let wrong_pk = Sevsnp.Attestation.platform_public_key other_platform.P.attestation in
  let user = V.Channel.create (Veil_crypto.Rng.create 2) ~platform_public:wrong_pk ~expected_launch:None in
  match V.Channel.connect user sys.V.Boot.mon sys.V.Boot.vcpu with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "accepted a report signed by the wrong platform"

(* The typed-error satellite: a user whose guest restarted must be
   able to *classify* the failure — [Disconnected] is retryable
   (re-attest and go again), a digest mismatch is tampering and must
   not be retried.  The old bare-string errors made this decision
   impossible without string matching. *)
let test_channel_reconnect_after_restart () =
  let boot_seeded seed = V.Boot.boot_veil ~npages:1024 ~seed () in
  let sys = boot_seeded 7 in
  run_audited_syscalls sys 3;
  let user =
    V.Channel.create (Veil_crypto.Rng.create 2)
      ~platform_public:(Sevsnp.Attestation.platform_public_key sys.V.Boot.platform.P.attestation)
      ~expected_launch:(Sevsnp.Attestation.launch_measurement sys.V.Boot.platform.P.attestation)
  in
  (* no session yet: typed, retryable *)
  (match V.Channel.fetch_logs user sys.V.Boot.slog sys.V.Boot.vcpu with
  | Error e ->
      Alcotest.(check bool) "disconnected is retryable" true (V.Channel.retryable e);
      Alcotest.(check bool) "it is Disconnected" true (e = V.Channel.Disconnected)
  | Ok _ -> Alcotest.fail "fetch over a never-connected channel must fail");
  (match V.Channel.connect user sys.V.Boot.mon sys.V.Boot.vcpu with
  | Ok () -> ()
  | Error e -> Alcotest.fail (V.Channel.error_to_string e));
  (match V.Channel.fetch_logs user sys.V.Boot.slog sys.V.Boot.vcpu with
  | Ok lines -> Alcotest.(check int) "logs before restart" 3 (List.length lines)
  | Error e -> Alcotest.fail (V.Channel.error_to_string e));
  (* guest restarts: same image, same seed — a fresh platform the old
     session keys are useless against *)
  let sys2 = boot_seeded 7 in
  run_audited_syscalls sys2 5;
  V.Channel.disconnect user;
  (match V.Channel.fetch_logs user sys2.V.Boot.slog sys2.V.Boot.vcpu with
  | Error e -> Alcotest.(check bool) "stale session is retryable" true (V.Channel.retryable e)
  | Ok _ -> Alcotest.fail "fetch over a dropped session must fail");
  (* the retry loop a client writes against the typed error *)
  (match V.Channel.connect user sys2.V.Boot.mon sys2.V.Boot.vcpu with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("reconnect: " ^ V.Channel.error_to_string e));
  (match V.Channel.fetch_logs user sys2.V.Boot.slog sys2.V.Boot.vcpu with
  | Ok lines -> Alcotest.(check int) "logs after reconnect" 5 (List.length lines)
  | Error e -> Alcotest.fail (V.Channel.error_to_string e));
  (* an imposter platform (report signed by the wrong key) is not a
     retry candidate: attestation error, never retryable *)
  let imposter = boot_seeded 8 in
  let strict =
    V.Channel.create (Veil_crypto.Rng.create 3)
      ~platform_public:(Sevsnp.Attestation.platform_public_key sys.V.Boot.platform.P.attestation)
      ~expected_launch:None
  in
  match V.Channel.connect strict imposter.V.Boot.mon imposter.V.Boot.vcpu with
  | Error e ->
      Alcotest.(check bool) "attestation failure is not retryable" false (V.Channel.retryable e)
  | Ok () -> Alcotest.fail "connected to a platform signing with the wrong key"

let test_sealed_messages () =
  let key = Bytes.make 32 'k' in
  let msg = Bytes.of_string "confidential log payload" in
  let sealed = V.Channel.seal ~key ~seq:7 ~dir:1 msg in
  (match V.Channel.open_ ~key ~seq:7 ~dir:1 sealed with
  | Ok plain -> Alcotest.(check bytes) "roundtrip" msg plain
  | Error e -> Alcotest.fail e);
  (match V.Channel.open_ ~key ~seq:8 ~dir:1 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replay accepted");
  (match V.Channel.open_ ~key ~seq:7 ~dir:0 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "direction confusion accepted");
  Bytes.set sealed (Bytes.length sealed - 1) '\x00';
  match V.Channel.open_ ~key ~seq:7 ~dir:1 sealed with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered ciphertext accepted"

let suite =
  [
    ("privilege domains", `Quick, test_privdom);
    ("layout tiling", `Quick, test_layout);
    ("boot protection sweep", `Quick, test_boot_protections);
    ("boot cost breakdown", `Quick, test_boot_cost_breakdown);
    ("os_call round trip + delegation", `Quick, test_os_call_roundtrip);
    ("os_call cost", `Quick, test_os_call_cost);
    ("sanitizer rejects protected pointers", `Quick, test_sanitizer_rejects);
    ("protected-region registry", `Quick, test_protected_registry);
    ("kci module load path", `Quick, test_kci_module_load);
    ("kci rejects tampered module", `Quick, test_kci_rejects_bad_signature);
    ("kci rejects unknown symbol", `Quick, test_kci_rejects_unknown_symbol);
    ("slog append/read/chain", `Quick, test_slog_append_and_read);
    ("slog chain on one reused context", `Quick, test_slog_chain_on_reused_context);
    ("slog survives kernel tamper", `Quick, test_slog_survives_kernel_tamper);
    ("slog capacity + clear", `Quick, test_slog_capacity);
    ("enclave measurement reproducible", `Quick, test_enclave_measurement_reproducible);
    ("enclave isolation + destroy scrub", `Quick, test_enclave_isolation_and_destroy);
    ("enclave data roundtrip", `Quick, test_enclave_data_roundtrip);
    ("enclave permission change", `Quick, test_enclave_change_perms);
    ("enclave demand paging", `Quick, test_enclave_demand_paging);
    ("enclave restore integrity check", `Quick, test_enclave_restore_wrong_page);
    ("channel attestation + log fetch", `Quick, test_channel_attest_and_logs);
    ("channel rejects wrong platform key", `Quick, test_channel_rejects_wrong_key);
    ("channel reconnects after guest restart", `Quick, test_channel_reconnect_after_restart);
    ("sealed message envelope", `Quick, test_sealed_messages);
  ]
