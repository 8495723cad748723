(* Bechamel wall-clock micro-benchmarks of the simulator's hot
   primitives — one Test.make per table/figure-critical operation, all
   registered in one executable per the project layout. *)

open Bechamel
open Toolkit

let sha_buf = Bytes.make 4096 'x'

let test_sha256 =
  Test.make ~name:"crypto/sha256-4k"
    (Staged.stage (fun () -> ignore (Veil_crypto.Sha256.digest_bytes sha_buf)))

(* VeilS-LOG's chain step, the fleet's dominant SHA-256 shape: a
   32-byte head and an 89-byte line, three compressions with padding. *)
let chain_head = Bytes.make 32 'h'
let chain_line = String.make 89 'l'

let test_sha256_chain_step =
  Test.make ~name:"crypto/sha256-chain-step"
    (Staged.stage (fun () ->
         let ctx = Veil_crypto.Sha256.init () in
         Veil_crypto.Sha256.update ctx chain_head;
         Veil_crypto.Sha256.update_string ctx chain_line;
         ignore (Veil_crypto.Sha256.finalize ctx)))

let chacha_key = Bytes.make 32 'k'
let chacha_nonce = Bytes.make 12 'n'

let test_chacha =
  Test.make ~name:"crypto/chacha20-4k"
    (Staged.stage (fun () ->
         ignore (Veil_crypto.Chacha20.encrypt ~key:chacha_key ~nonce:chacha_nonce sha_buf)))

let test_powmod =
  Test.make ~name:"crypto/powmod-96bit"
    (Staged.stage (fun () ->
         let g = Veil_crypto.Group.default () in
         ignore
           (Veil_crypto.Bignum.powmod ~base:g.Veil_crypto.Group.g ~exp:g.Veil_crypto.Group.q
              ~modulus:g.Veil_crypto.Group.p)))

(* E2's subject: a full OS->VeilMon->OS round trip on a live system *)
let switch_sys = lazy (Veil_core.Boot.boot_veil ~npages:2048 ~seed:19 ())

let test_domain_switch =
  Test.make ~name:"veil/domain-switch-roundtrip"
    (Staged.stage (fun () ->
         let sys = Lazy.force switch_sys in
         Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           ~target:Veil_core.Privdom.Mon;
         Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           ~target:Veil_core.Privdom.Unt))

let test_os_call =
  Test.make ~name:"veil/os-call-pvalidate"
    (Staged.stage (fun () ->
         let sys = Lazy.force switch_sys in
         ignore
           (Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
              (Veil_core.Idcb.R_pvalidate { gpfn = 1200; to_private = true }))))

let test_rmpadjust =
  Test.make ~name:"sevsnp/rmpadjust"
    (Staged.stage (fun () ->
         let sys = Lazy.force switch_sys in
         Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           ~target:Veil_core.Privdom.Mon;
         ignore
           (Sevsnp.Platform.rmpadjust sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu ~gpfn:1300
              ~target:Sevsnp.Types.Vmpl3 ~perms:Sevsnp.Perm.all ~vmsa:false ());
         Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
           ~target:Veil_core.Privdom.Unt))

(* Guest-memory fast path: the checked-physical and translated paths
   every workload byte funnels through. *)
let mem_gpa = lazy (
  let sys = Lazy.force switch_sys in
  let l = sys.Veil_core.Boot.layout in
  Sevsnp.Types.gpa_of_gpfn l.Veil_core.Layout.kernel_free.Veil_core.Layout.lo)

let mem_va = 0x4000_0000

let mem_proc = lazy (
  let sys = Lazy.force switch_sys in
  let kernel = sys.Veil_core.Boot.kernel in
  let proc = Guest_kernel.Kernel.init_process kernel in
  Guest_kernel.Kernel.map_user_pages kernel proc ~va:mem_va ~npages:2
    ~prot:Guest_kernel.Ktypes.prot_rw;
  proc)

let mem_buf = Bytes.create 4096

let test_checked_read_4k =
  Test.make ~name:"mem/checked-read-4k"
    (Staged.stage (fun () ->
         let sys = Lazy.force switch_sys in
         Sevsnp.Platform.read_into sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu
           (Lazy.force mem_gpa) mem_buf 0 4096))

let test_via_pt_read_4k =
  Test.make ~name:"mem/via-pt-read-4k"
    (Staged.stage (fun () ->
         let sys = Lazy.force switch_sys in
         let proc = Lazy.force mem_proc in
         Sevsnp.Platform.read_into_via_pt sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu
           ~root:proc.Guest_kernel.Process.pt_root mem_va mem_buf 0 4096))

(* One u64 through the TLB: translation cache hit + RMP snapshot check
   + direct load — the per-word cost every via-pt access amortizes. *)
let test_tlb_hit_u64 =
  Test.make ~name:"mem/tlb-hit-u64"
    (Staged.stage (fun () ->
         let sys = Lazy.force switch_sys in
         let proc = Lazy.force mem_proc in
         ignore
           (Sevsnp.Platform.read_u64_via_pt sys.Veil_core.Boot.platform sys.Veil_core.Boot.vcpu
              ~root:proc.Guest_kernel.Process.pt_root mem_va)))

(* Veil-Explore's fixed cost per branch: one fork of the rmp-shootdown
   image — unmarshal the OCaml state, attach the shared memory chunks,
   run the major slice.  The image is built once, before timing. *)
let fork_image =
  lazy
    (match Explore.find_scenario "rmp-shootdown" with
    | None -> failwith "rmp-shootdown scenario missing"
    | Some sc -> (
        match Explore.snapshot sc with
        | Ok image -> image
        | Error o -> failwith ("rmp-shootdown boot failed: " ^ Chaos_outcome.to_string o)))

let test_fork =
  Test.make ~name:"explore/fork-rmp-shootdown"
    (Staged.stage (fun () -> ignore (Explore.fork (Lazy.force fork_image))))

(* Exitless syscalls (§10, FlexSC-style): enclave submits into the
   shared-arena ring, a worker VCPU drains — no synchronous exit on
   the enclave VCPU.  One lazy system with a hotplugged worker, shared
   by the wall-clock test and the submit-path alloc-check. *)
let exitless_rig =
  lazy
    (let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:23 () in
     (match
        (Guest_kernel.Kernel.hooks sys.Veil_core.Boot.kernel).Guest_kernel.Hooks.h_vcpu_boot
          ~vcpu_id:1
      with
     | Ok () -> ()
     | Error e -> failwith ("micro exitless: " ^ e));
     let worker = List.nth (Sevsnp.Platform.vcpus sys.Veil_core.Boot.platform) 1 in
     let rt =
       match
         Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 'E')
           (Guest_kernel.Kernel.spawn sys.Veil_core.Boot.kernel)
       with
       | Ok rt -> rt
       | Error e -> failwith ("micro exitless: " ^ e)
     in
     let ring = Result.get_ok (Enclave_sdk.Exitless.create rt ~slots:32) in
     (sys, worker, rt, ring))

let test_exitless =
  Test.make ~name:"exitless/submit-drain"
    (Staged.stage (fun () ->
         let _, worker, _, ring = Lazy.force exitless_rig in
         let tickets =
           List.init 32 (fun _ ->
               Result.get_ok (Enclave_sdk.Exitless.submit ring Guest_kernel.Sysno.Getpid []))
         in
         ignore (Enclave_sdk.Exitless.drain_on ring worker);
         List.iter (fun t -> ignore (Enclave_sdk.Exitless.poll ring t)) tickets))

let lzss_input = lazy (Workloads.Textgen.text (Veil_crypto.Rng.create 5) 4096)

let test_deflate =
  Test.make ~name:"workloads/deflate-4k"
    (Staged.stage (fun () -> ignore (Workloads.Deflate.compress (Lazy.force lzss_input))))

let mcache_inst = lazy (
  let m = Workloads.Mcache.create () in
  for i = 0 to 63 do
    Workloads.Mcache.set m ~key:(string_of_int i) ~value:(Bytes.make 100 'v') ()
  done;
  m)

let test_mcache =
  Test.make ~name:"workloads/mcache-get-set"
    (Staged.stage (fun () ->
         let m = Lazy.force mcache_inst in
         Workloads.Mcache.set m ~key:"7" ~value:(Bytes.make 100 'w') ();
         ignore (Workloads.Mcache.get m "7")))

let test_lzss =
  Test.make ~name:"workloads/lzss-4k"
    (Staged.stage (fun () -> ignore (Workloads.Lzss.compress (Lazy.force lzss_input))))

let test_huffman =
  Test.make ~name:"workloads/huffman-4k"
    (Staged.stage (fun () -> ignore (Workloads.Huffman.encode (Lazy.force lzss_input))))

let all_tests =
  Test.make_grouped ~name:"veil-micro"
    [ test_sha256; test_sha256_chain_step; test_chacha; test_powmod; test_domain_switch;
      test_os_call; test_rmpadjust; test_checked_read_4k; test_via_pt_read_4k; test_tlb_hit_u64;
      test_exitless; test_lzss; test_huffman; test_deflate; test_mcache; test_fork ]

(* Veil-Trace contract: while tracing is disabled, the instrumented
   stack must not allocate anything new on the platform's read/write
   hot path.  Measured with Gc.minor_words around checked u64
   accesses, disabled vs enabled. *)
let alloc_check () =
  let sys = Lazy.force switch_sys in
  let platform = sys.Veil_core.Boot.platform in
  let vcpu = sys.Veil_core.Boot.vcpu in
  let l = sys.Veil_core.Boot.layout in
  let gpa =
    Sevsnp.Types.gpa_of_gpfn l.Veil_core.Layout.kernel_free.Veil_core.Layout.lo
  in
  let n = 100_000 in
  let words_per_op f =
    f ();
    (* warm-up: first call pays one-time page-touch costs *)
    let before = Gc.minor_words () in
    for _ = 1 to n do
      f ()
    done;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let wr () = Sevsnp.Platform.write_u64 platform vcpu gpa 0x42 in
  let rd () = ignore (Sevsnp.Platform.read_u64 platform vcpu gpa) in
  (* check_exec runs the full RMP/VMPL check; since the flat-RMP and
     chunked-arena rewrite the u64 accessors are allocation-free too,
     so the contract for every path is an exact 0.0 — tracing off AND
     on (the enabled-but-quiet tracer must not cost the hot path). *)
  let ex () = Sevsnp.Platform.check_exec platform vcpu gpa in
  let proc = Lazy.force mem_proc in
  let tl () =
    ignore
      (Sevsnp.Platform.read_u64_via_pt platform vcpu ~root:proc.Guest_kernel.Process.pt_root
         mem_va)
  in
  (* Veil-Prof contract: with the profiler disabled, the instrumented
     syscall path (kernel.invoke push/pop + causal-id sites) must cost
     one predicted branch and zero allocation.  sched_yield is the
     no-op syscall: everything measured is instrumentation overhead. *)
  let kernel = sys.Veil_core.Boot.kernel in
  let sy () =
    ignore (Guest_kernel.Kernel.invoke kernel proc Guest_kernel.Sysno.Sched_yield [])
  in
  (* Veil-Chaos contract: a disarmed platform pays one [match] on the
     world-exit path and nothing else; an armed plan whose sites are
     all probability-0 must allocate exactly as much as disarmed
     (zero-probability fire consumes no PRNG draw and allocates
     nothing).  Measured on the chaos-checked path — the full
     OS→VeilMon→OS domain-switch round trip. *)
  let mon = sys.Veil_core.Boot.mon in
  let ds () =
    Veil_core.Monitor.domain_switch mon vcpu ~target:Veil_core.Privdom.Mon;
    Veil_core.Monitor.domain_switch mon vcpu ~target:Veil_core.Privdom.Unt
  in
  (* Veil-Scope contract: arming the scheduler's [wait_obs] while the
     tracer is disabled must add zero allocation to the yield/park
     path — each hook is one [Trace.enabled] test.  Effect-based
     suspension itself allocates (continuation capture), so the
     contract is armed = unarmed, like the chaos comparison. *)
  let sched_words wait_obs =
    let s = Guest_kernel.Sched.create ?wait_obs ~nvcpus:1 () in
    let iters = 20_000 in
    Guest_kernel.Sched.spawn ~vcpu:0 s ~name:"spin" (fun () ->
        for _ = 1 to iters do
          Guest_kernel.Sched.yield ()
        done);
    ignore (Guest_kernel.Sched.step_vcpu s 0);
    let before = Gc.minor_words () in
    let steps = ref 0 in
    while Guest_kernel.Sched.step_vcpu s 0 do
      incr steps
    done;
    (Gc.minor_words () -. before) /. float_of_int !steps
  in
  let quiet_tr = Obs.Trace.create ~capacity:64 () in
  let sc_plain = sched_words None in
  let sc_armed =
    sched_words
      (Some
         {
           Guest_kernel.Sched.wo_tracer = quiet_tr;
           wo_now = (fun () -> 0);
           wo_vcpu = (fun () -> 0);
           wo_vmpl = 3;
         })
  in
  let tr = platform.Sevsnp.Platform.tracer in
  let prof = platform.Sevsnp.Platform.profiler in
  let was_on = Obs.Trace.enabled tr in
  let prof_was_on = Obs.Profiler.enabled prof in
  Obs.Trace.set_enabled tr false;
  Obs.Profiler.set_enabled prof false;
  let w_off = words_per_op wr and r_off = words_per_op rd and x_off = words_per_op ex in
  let t_off = words_per_op tl in
  let s_off = words_per_op sy in
  (* Exitless contract: a prepared submission into the shared-arena
     ring is pure stores + integer math — the enclave-side submit path
     allocates nothing (§10's other future-work path, next to rings). *)
  let _, _, _, ex_ring = Lazy.force exitless_rig in
  let ex_prep = Result.get_ok (Enclave_sdk.Exitless.prepare Guest_kernel.Sysno.Getpid []) in
  let ex_sub () =
    Enclave_sdk.Exitless.cancel ex_ring (Enclave_sdk.Exitless.submit_prepared ex_ring ex_prep)
  in
  let e_sub = words_per_op ex_sub in
  (* SHA-256 contract: compressing whole blocks straight from the
     caller's bytes allocates nothing, so a boxing kernel shows here. *)
  let sha_ctx = Veil_crypto.Sha256.init () and sha_block = Bytes.make 64 's' in
  let sha_upd = words_per_op (fun () -> Veil_crypto.Sha256.update sha_ctx sha_block) in
  Sevsnp.Platform.disarm_chaos platform;
  let d_disarmed = words_per_op ds in
  Sevsnp.Platform.arm_chaos platform (Chaos.Fault_plan.create ~seed:1 ());
  let d_armed = words_per_op ds in
  Sevsnp.Platform.disarm_chaos platform;
  (* Veil-Pulse contract: an armed sampler whose epoch never elapses
     pays only integer compares on the world-exit path — the same
     words/op as disarmed (where the tick is one flag test).  The
     domain-switch round trip runs through vmgexit, i.e. through the
     tick site. *)
  let pu = platform.Sevsnp.Platform.pulse in
  let p_disarmed = words_per_op ds in
  Obs.Pulse.arm pu ~interval:max_int ~now:(Sevsnp.Vcpu.rdtsc vcpu);
  let p_armed = words_per_op ds in
  Obs.Pulse.disarm pu;
  Obs.Trace.set_enabled tr true;
  let w_on = words_per_op wr and r_on = words_per_op rd and x_on = words_per_op ex in
  let t_on = words_per_op tl in
  Obs.Trace.set_enabled tr was_on;
  Obs.Profiler.set_enabled prof prof_was_on;
  print_endline (String.make 78 '-');
  print_endline "Veil-Trace allocation check (minor words per checked platform access)";
  print_endline (String.make 78 '-');
  Printf.printf "  check_exec     : tracing off %.4f w/op, on %.4f w/op\n" x_off x_on;
  Printf.printf "  write_u64      : tracing off %.4f w/op, on %.4f w/op\n" w_off w_on;
  Printf.printf "  read_u64       : tracing off %.4f w/op, on %.4f w/op\n" r_off r_on;
  Printf.printf "  tlb-hit u64 read: tracing off %.4f w/op, on %.4f w/op\n" t_off t_on;
  Printf.printf "  sched_yield syscall (profiler off): %.4f w/op\n" s_off;
  Printf.printf "  exitless prepared submit: %.4f w/op\n" e_sub;
  Printf.printf "  sha256 update, one whole block: %.4f w/op\n" sha_upd;
  Printf.printf "  domain-switch roundtrip: chaos disarmed %.4f w/op, armed zero-prob %.4f w/op\n"
    d_disarmed d_armed;
  Printf.printf "  domain-switch roundtrip: pulse disarmed %.4f w/op, armed no-capture %.4f w/op\n"
    p_disarmed p_armed;
  Printf.printf "  sched yield step: wait_obs unarmed %.4f w/op, armed tracer-off %.4f w/op\n"
    sc_plain sc_armed;
  if
    x_off = 0.0 && x_on = 0.0 && w_off = 0.0 && w_on = 0.0 && r_off = 0.0 && r_on = 0.0
    && t_off = 0.0 && t_on = 0.0 && s_off = 0.0 && e_sub = 0.0 && sha_upd = 0.0
    && d_armed = d_disarmed
    && sc_armed = sc_plain && p_armed = p_disarmed
  then
    print_endline
      "  PASS: checked physical access, the TLB-hit translated path, the\n\
      \        profiler-disabled syscall path, the exitless submit path and\n\
      \        SHA-256 block compression allocate nothing; an armed\n\
      \        zero-probability chaos plan costs the same as disarmed, an\n\
      \        armed wait_obs with the tracer off costs the yield path\n\
      \        nothing, and an armed pulse sampler between captures costs\n\
      \        what disarmed costs"
  else begin
    print_endline "  FAIL: an instrumented hot path allocates";
    exit 1
  end

let run () =
  print_endline (String.make 78 '-');
  print_endline "Bechamel micro-benchmarks (host wall-clock of simulator primitives)";
  print_endline (String.make 78 '-');
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) () in
  (* boot the fork image before timing: paid inside the first timed
     run it would swamp the estimate *)
  ignore (Lazy.force fork_image);
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
          Printf.printf "  %-34s %12.0f ns/run\n" name est;
          Experiments.record_micro ~name ~ns_per_run:est
      | _ -> Printf.printf "  %-34s (no estimate)\n" name)
    results;
  alloc_check ()
