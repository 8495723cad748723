(* veilctl — drive the simulated Veil CVM from the command line:
   inspect a boot, run the attack suites, the LTP battery, or a
   workload under any measurement mode. *)

open Cmdliner

let npages_arg =
  let doc = "Guest memory in 4 KB frames (>= 1024)." in
  Arg.(value & opt int Veil_core.Boot.default_npages & info [ "m"; "npages" ] ~docv:"FRAMES" ~doc)

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 11 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

(* --- boot --- *)

let boot_cmd =
  let run npages seed =
    let sys = Veil_core.Boot.boot_veil ~npages ~seed () in
    Printf.printf "Veil CVM booted: %d frames, kernel at %s\n" npages
      (Veil_core.Privdom.to_string
         (Veil_core.Privdom.of_vmpl (Sevsnp.Vcpu.vmpl sys.Veil_core.Boot.vcpu)));
    Printf.printf "boot cost: %d cycles (%.1f ms guest time)\n" sys.Veil_core.Boot.boot_cycles
      (1000.0 *. Sevsnp.Cycles.seconds_of_cycles sys.Veil_core.Boot.boot_cycles);
    Printf.printf "launch measurement: %s\n"
      (Veil_crypto.Sha256.hex_of_digest
         (Option.get
            (Sevsnp.Attestation.launch_measurement
               sys.Veil_core.Boot.platform.Sevsnp.Platform.attestation)));
    print_endline "memory layout (frames):";
    Format.printf "%a@." Veil_core.Layout.pp sys.Veil_core.Boot.layout;
    (match Veil_core.Veil.connect_user sys with
    | Ok _ -> print_endline "remote attestation handshake: OK"
    | Error e -> Printf.printf "remote attestation handshake FAILED: %s\n" e)
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Boot a Veil CVM and print its layout and measurement.")
    Term.(const run $ npages_arg $ seed_arg)

(* --- attacks --- *)

let attacks_cmd =
  let name_arg =
    let doc = "Run only the named attack (default: all)." in
    Arg.(value & opt (some string) None & info [ "n"; "name" ] ~docv:"NAME" ~doc)
  in
  let run name =
    let attacks =
      match name with
      | None -> Veil_attacks.Attacks.all ()
      | Some n ->
          List.filter (fun a -> Veil_attacks.Attacks.name a = n) (Veil_attacks.Attacks.all ())
    in
    if attacks = [] then begin
      print_endline "no such attack; available:";
      List.iter
        (fun a -> Printf.printf "  %s\n" (Veil_attacks.Attacks.name a))
        (Veil_attacks.Attacks.all ());
      exit 1
    end;
    let blocked = ref 0 in
    List.iter
      (fun a ->
        let o = Veil_attacks.Attacks.run a in
        if Veil_attacks.Attacks.is_blocked o then incr blocked;
        Printf.printf "%-36s %s\n" (Veil_attacks.Attacks.name a)
          (Veil_attacks.Attacks.outcome_to_string o))
      attacks;
    Printf.printf "defended: %d/%d\n" !blocked (List.length attacks);
    if !blocked <> List.length attacks then exit 1
  in
  Cmd.v
    (Cmd.info "attacks" ~doc:"Run the §8 attack suite (Tables 1-2 and the §8.3 validation).")
    Term.(const run $ name_arg)

(* --- ltp --- *)

let ltp_cmd =
  let run npages seed =
    let sys = Veil_core.Boot.boot_veil ~npages ~seed () in
    let results = Enclave_sdk.Ltp.run_all sys in
    List.iter
      (fun r ->
        Printf.printf "%-14s %d/%d%s\n"
          (Guest_kernel.Sysno.to_string r.Enclave_sdk.Ltp.lsys)
          r.Enclave_sdk.Ltp.passed r.Enclave_sdk.Ltp.total
          (if r.Enclave_sdk.Ltp.killed then "  (unsupported: enclave killed)" else ""))
      results;
    let s = Enclave_sdk.Ltp.summarize results in
    Printf.printf "calls passing everything: %d/%d; cases: %d/%d\n"
      s.Enclave_sdk.Ltp.calls_all_passed s.Enclave_sdk.Ltp.calls_total
      s.Enclave_sdk.Ltp.cases_passed s.Enclave_sdk.Ltp.cases_total
  in
  Cmd.v
    (Cmd.info "ltp" ~doc:"Run the LTP-style syscall robustness battery inside enclaves (§7).")
    Term.(const run $ npages_arg $ seed_arg)

(* --- run a workload --- *)

let run_cmd =
  let workload_arg =
    let doc =
      "Workload name (gzip, sqlite, unqlite, mbedtls, lighttpd, nginx, memcached, openssl, 7zip, \
       spec-cpu)."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD" ~doc)
  in
  let mode_arg =
    let modes =
      [ ("native", Workloads.Driver.Native); ("veil", Workloads.Driver.Veil_background);
        ("enclave", Workloads.Driver.Enclave); ("kaudit", Workloads.Driver.Kaudit);
        ("veils-log", Workloads.Driver.Veils_log) ]
    in
    let doc = "Measurement mode: native, veil, enclave, kaudit or veils-log." in
    Arg.(value & opt (enum modes) Workloads.Driver.Native & info [ "mode" ] ~docv:"MODE" ~doc)
  in
  let scale_arg =
    let doc = "Problem-size multiplier." in
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc)
  in
  let run name mode scale npages seed =
    match Workloads.Registry.find name with
    | None ->
        Printf.printf "unknown workload %S; known: %s\n" name
          (String.concat ", "
             (List.map (fun w -> w.Workloads.Workload.name) (Workloads.Registry.all ())));
        exit 1
    | Some w ->
        let s = Workloads.Driver.run ~scale ~seed ~npages mode w in
        Printf.printf "%s [%s]: %d cycles (%.2f ms guest time)\n" name
          (Workloads.Driver.mode_to_string mode) s.Workloads.Driver.cycles
          (1000.0 *. s.Workloads.Driver.seconds);
        Printf.printf "  syscalls=%d vm-exits=%d domain-switches=%d audit-records=%d\n"
          s.Workloads.Driver.syscalls s.Workloads.Driver.vm_exits s.Workloads.Driver.domain_switches
          s.Workloads.Driver.audit_records;
        Printf.printf "  cycles: compute=%d kernel=%d switch=%d copy=%d monitor=%d crypto=%d io=%d\n"
          s.Workloads.Driver.compute_cycles s.Workloads.Driver.kernel_cycles
          s.Workloads.Driver.switch_cycles s.Workloads.Driver.copy_cycles
          s.Workloads.Driver.monitor_cycles s.Workloads.Driver.crypto_cycles
          s.Workloads.Driver.io_cycles;
        (match s.Workloads.Driver.enclave with
        | Some st ->
            Printf.printf
              "  enclave: ocalls=%d exits=%d redirect-bytes=%d redirect-cycles=%d exit-cycles=%d\n"
              st.Enclave_sdk.Runtime.ocalls st.Enclave_sdk.Runtime.enclave_exits
              st.Enclave_sdk.Runtime.redirect_bytes st.Enclave_sdk.Runtime.redirect_cycles
              st.Enclave_sdk.Runtime.exit_cycles
        | None -> ())
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an evaluation workload in a chosen measurement mode.")
    Term.(const run $ workload_arg $ mode_arg $ scale_arg $ npages_arg $ seed_arg)

(* --- status: boot, exercise every service, dump counters --- *)

let status_cmd =
  let run npages seed =
    let sys = Veil_core.Boot.boot_veil ~npages ~seed () in
    let kernel = sys.Veil_core.Boot.kernel in
    (* a little of everything *)
    Guest_kernel.Audit.set_rules (Guest_kernel.Kernel.audit kernel)
      Guest_kernel.Sysno.audit_default_ruleset;
    let proc = Guest_kernel.Kernel.spawn kernel in
    for i = 0 to 9 do
      ignore
        (Guest_kernel.Kernel.invoke kernel proc Guest_kernel.Sysno.Open
           [ Guest_kernel.Ktypes.Str (Printf.sprintf "/tmp/s%d" i); Guest_kernel.Ktypes.Int 0x42;
             Guest_kernel.Ktypes.Int 0o644 ])
    done;
    let img =
      Guest_kernel.Kmodule.build (Guest_kernel.Kernel.rng kernel) ~name:"status-mod" ~text_size:4096
        ~data_size:256 ~symbols:[ "ksym_0" ]
    in
    Guest_kernel.Kernel.vendor_sign_module kernel img;
    ignore (Guest_kernel.Kernel.load_module kernel img);
    let eproc = Guest_kernel.Kernel.spawn kernel in
    (match Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 's') eproc with
    | Ok rt ->
        Enclave_sdk.Runtime.run rt (fun rt ->
            ignore (Enclave_sdk.Runtime.ocall rt Guest_kernel.Sysno.Getpid []))
    | Error e -> print_endline ("enclave: " ^ e));
    ignore
      (Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
         (Veil_core.Idcb.R_tpm_extend { pcr = 0; data = Bytes.of_string "status" }));
    (* report *)
    let m = Veil_core.Monitor.stats sys.Veil_core.Boot.mon in
    Printf.printf "VeilMon   : os-calls=%d pvalidate-delegations=%d vcpu-boots=%d sanitizer-rejects=%d\n"
      m.Veil_core.Monitor.os_calls m.Veil_core.Monitor.delegated_pvalidates
      m.Veil_core.Monitor.delegated_vcpu_boots m.Veil_core.Monitor.sanitizer_rejections;
    let k = Veil_core.Kci.stats sys.Veil_core.Boot.kci in
    Printf.printf "VeilS-KCI : active=%b loaded=%d unloaded=%d rejected=%d\n"
      (Veil_core.Kci.active sys.Veil_core.Boot.kci)
      k.Veil_core.Kci.modules_loaded k.Veil_core.Kci.modules_unloaded k.Veil_core.Kci.rejected;
    let s = Veil_core.Slog.stats sys.Veil_core.Boot.slog in
    Printf.printf "VeilS-LOG : appended=%d dropped=%d used=%d/%d bytes\n" s.Veil_core.Slog.appended
      s.Veil_core.Slog.dropped_full
      (Veil_core.Slog.used_bytes sys.Veil_core.Boot.slog)
      (Veil_core.Slog.capacity_bytes sys.Veil_core.Boot.slog);
    let e = Veil_core.Encsvc.stats sys.Veil_core.Boot.enc in
    Printf.printf "VeilS-ENC : created=%d destroyed=%d rejected=%d entries=%d exits=%d paging=%d/%d\n"
      e.Veil_core.Encsvc.created e.Veil_core.Encsvc.destroyed e.Veil_core.Encsvc.rejected
      e.Veil_core.Encsvc.entries e.Veil_core.Encsvc.exits e.Veil_core.Encsvc.evictions
      e.Veil_core.Encsvc.restores;
    Printf.printf "VeilS-TPM : extends=%d pcr0=%s\n"
      (Veil_core.Vtpm.extends_count sys.Veil_core.Boot.vtpm)
      (Veil_crypto.Sha256.hex_of_digest (Veil_core.Vtpm.pcr_value sys.Veil_core.Boot.vtpm 0));
    let h = Hypervisor.Hv.stats sys.Veil_core.Boot.hv in
    Printf.printf "Hypervisor: domain-switches=%d io=%d interrupts=%d page-state-changes=%d\n"
      h.Hypervisor.Hv.domain_switches h.Hypervisor.Hv.io_requests h.Hypervisor.Hv.interrupts_injected
      h.Hypervisor.Hv.page_state_changes;
    Printf.printf "Guest     : syscalls=%d vm-exits=%d guest-time=%.1f ms\n"
      (Guest_kernel.Kernel.syscalls_invoked kernel)
      sys.Veil_core.Boot.vcpu.Sevsnp.Vcpu.exits
      (1000.0 *. Sevsnp.Cycles.seconds_of_cycles (Sevsnp.Vcpu.rdtsc sys.Veil_core.Boot.vcpu))
  in
  Cmd.v
    (Cmd.info "status" ~doc:"Boot, exercise all four protected services, print every counter.")
    Term.(const run $ npages_arg $ seed_arg)

(* --- trace / metrics: Veil-Trace observability --- *)

(* One deterministic exercise of the whole stack (audited syscalls,
   module load, enclave round trip, vTPM extend).  Both the [trace] and
   [metrics] commands run exactly this after resetting the registry, so
   their counts agree event-for-event. *)
let quickstart_scenario sys =
  let kernel = sys.Veil_core.Boot.kernel in
  Guest_kernel.Audit.set_rules (Guest_kernel.Kernel.audit kernel)
    Guest_kernel.Sysno.audit_default_ruleset;
  let proc = Guest_kernel.Kernel.spawn kernel in
  for i = 0 to 9 do
    ignore
      (Guest_kernel.Kernel.invoke kernel proc Guest_kernel.Sysno.Open
         [ Guest_kernel.Ktypes.Str (Printf.sprintf "/tmp/s%d" i); Guest_kernel.Ktypes.Int 0x42;
           Guest_kernel.Ktypes.Int 0o644 ])
  done;
  let img =
    Guest_kernel.Kmodule.build (Guest_kernel.Kernel.rng kernel) ~name:"trace-mod" ~text_size:4096
      ~data_size:256 ~symbols:[ "ksym_0" ]
  in
  Guest_kernel.Kernel.vendor_sign_module kernel img;
  ignore (Guest_kernel.Kernel.load_module kernel img);
  let eproc = Guest_kernel.Kernel.spawn kernel in
  (match Enclave_sdk.Runtime.create sys ~binary:(Bytes.make 4096 't') eproc with
  | Ok rt ->
      Enclave_sdk.Runtime.run rt (fun rt ->
          ignore (Enclave_sdk.Runtime.ocall rt Guest_kernel.Sysno.Getpid []))
  | Error e -> print_endline ("enclave: " ^ e));
  ignore
    (Veil_core.Monitor.os_call sys.Veil_core.Boot.mon sys.Veil_core.Boot.vcpu
       (Veil_core.Idcb.R_tpm_extend { pcr = 0; data = Bytes.of_string "trace" }))

let arm_observability (platform : Sevsnp.Platform.t) =
  Obs.Metrics.reset platform.Sevsnp.Platform.metrics;
  Obs.Trace.clear platform.Sevsnp.Platform.tracer;
  Obs.Trace.set_enabled platform.Sevsnp.Platform.tracer true;
  Obs.Profiler.reset platform.Sevsnp.Platform.profiler;
  Obs.Profiler.set_enabled platform.Sevsnp.Platform.profiler true

let counter_value m name =
  match Obs.Metrics.find m name with Some (Obs.Metrics.Counter c) -> Obs.Metrics.value c | _ -> 0

let trace_summary (platform : Sevsnp.Platform.t) =
  let tr = platform.Sevsnp.Platform.tracer in
  let m = platform.Sevsnp.Platform.metrics in
  Printf.printf "events: emitted=%d stored=%d (capacity %d)\n" (Obs.Trace.emitted tr)
    (Obs.Trace.stored tr) (Obs.Trace.capacity tr);
  List.iter
    (fun (kind, metric) ->
      Printf.printf "  %-14s trace=%-6d registry(%s)=%d\n" (Obs.Trace.kind_name kind)
        (Obs.Trace.count_kind tr kind) metric (counter_value m metric))
    [
      (Obs.Trace.Domain_switch, "hv.domain_switches");
      (Obs.Trace.Vmgexit, "platform.vmgexit");
      (Obs.Trace.Vmenter, "platform.vmenter");
      (Obs.Trace.Syscall, "kernel.syscalls");
      (Obs.Trace.Npf, "platform.npf");
      (Obs.Trace.Audit_emit, "slog.appended");
    ]

let out_arg =
  let doc = "Write the Chrome trace-event JSON here (open in chrome://tracing or Perfetto)." in
  Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let folded_arg =
  let doc = "Also write the profiler's folded-stack flamegraph text here (flamegraph.pl input)." in
  Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)

let workload_pos_arg =
  let doc =
    "What to run: \"quickstart\" (boot + one pass over every protected service) or an \
     evaluation workload name (gzip, sqlite, ...)."
  in
  Arg.(value & pos 0 string "quickstart" & info [] ~docv:"WORKLOAD" ~doc)

let mode_opt_arg =
  let modes =
    [ ("native", Workloads.Driver.Native); ("veil", Workloads.Driver.Veil_background);
      ("enclave", Workloads.Driver.Enclave); ("kaudit", Workloads.Driver.Kaudit);
      ("veils-log", Workloads.Driver.Veils_log) ]
  in
  let doc = "Measurement mode for workload runs." in
  Arg.(value & opt (enum modes) Workloads.Driver.Veil_background & info [ "mode" ] ~docv:"MODE" ~doc)

(* Boot, arm the tracer+profiler, run the chosen scenario, return the
   platform with both disarmed — shared by [trace] and [profile]. *)
let run_instrumented workload mode npages seed =
  let platform =
    match workload with
    | "quickstart" ->
        let sys = Veil_core.Boot.boot_veil ~npages ~seed () in
        let platform = sys.Veil_core.Boot.platform in
        arm_observability platform;
        quickstart_scenario sys;
        platform
    | name -> (
        match Workloads.Registry.find name with
        | None ->
            Printf.printf "unknown workload %S; known: quickstart, %s\n" name
              (String.concat ", "
                 (List.map (fun w -> w.Workloads.Workload.name) (Workloads.Registry.all ())));
            exit 1
        | Some w ->
            let captured = ref None in
            let on_boot p =
              captured := Some p;
              arm_observability p
            in
            ignore (Workloads.Driver.run ~seed ~npages ~on_boot mode w);
            Option.get !captured)
  in
  Obs.Trace.set_enabled platform.Sevsnp.Platform.tracer false;
  Obs.Profiler.set_enabled platform.Sevsnp.Platform.profiler false;
  platform

let write_file_or_die path contents =
  match open_out path with
  | oc ->
      output_string oc contents;
      close_out oc
  | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 1

let write_folded platform path =
  let prof = platform.Sevsnp.Platform.profiler in
  let paths = Obs.Profiler.paths prof in
  write_file_or_die path (Obs.Folded.render paths);
  Printf.printf "wrote %s (%d stacks, %d self-cycles attributed)\n" path (List.length paths)
    (Obs.Profiler.total_self prof)

let trace_cmd =
  let run workload mode out folded npages seed =
    let platform = run_instrumented workload mode npages seed in
    let tr = platform.Sevsnp.Platform.tracer in
    write_file_or_die out (Obs.Chrome_trace.to_json tr);
    Printf.printf "wrote %s (timestamps/durations in guest cycles @ %d Hz)\n" out
      Sevsnp.Cycles.freq_hz;
    Option.iter (write_folded platform) folded;
    trace_summary platform;
    if not (Obs.Trace.well_nested tr) then begin
      print_endline "warning: begin/end spans are not well nested";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Record a cycle-timestamped event trace of a run and export it as Chrome trace-event \
          JSON (labeled per-VMPL process tracks; --folded adds flamegraph text).")
    Term.(const run $ workload_pos_arg $ mode_opt_arg $ out_arg $ folded_arg $ npages_arg $ seed_arg)

(* --- profile: Veil-Prof cycle attribution --- *)

let profile_cmd =
  let prof_out_arg =
    let doc = "Write the attribution ledger here (\"-\" = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run workload mode out folded npages seed =
    let platform = run_instrumented workload mode npages seed in
    let prof = platform.Sevsnp.Platform.profiler in
    let buf = Buffer.create 1024 in
    Buffer.add_string buf
      "Veil-Prof attribution ledger (self cycles by VMPL and bucket)\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-4s %-16s %14s %10s\n" "vmpl" "bucket" "self-cycles" "hits");
    List.iter
      (fun ((vmpl, bucket), (self, hits)) ->
        Buffer.add_string buf (Printf.sprintf "  %-4d %-16s %14d %10d\n" vmpl bucket self hits))
      (Obs.Profiler.ledger prof);
    Buffer.add_string buf
      (Printf.sprintf "  total attributed: %d cycles across %d stacks\n"
         (Obs.Profiler.total_self prof)
         (List.length (Obs.Profiler.paths prof)));
    if out = "-" then print_string (Buffer.contents buf)
    else begin
      write_file_or_die out (Buffer.contents buf);
      Printf.printf "wrote %s\n" out
    end;
    Option.iter (write_folded platform) folded
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a scenario under the Veil-Prof cycle-attribution profiler and print the \
          (VMPL, bucket) ledger; --folded FILE emits flamegraph folded-stack text.")
    Term.(const run $ workload_pos_arg $ mode_opt_arg $ prof_out_arg $ folded_arg $ npages_arg
          $ seed_arg)

let metrics_cmd =
  let json_arg =
    let doc = "Emit the registry as JSON instead of the flat text dump." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run json npages seed =
    let sys = Veil_core.Boot.boot_veil ~npages ~seed () in
    let platform = sys.Veil_core.Boot.platform in
    (* Same reset point and scenario as [trace quickstart], so the two
       commands report identical numbers. *)
    arm_observability platform;
    Obs.Trace.set_enabled platform.Sevsnp.Platform.tracer false;
    quickstart_scenario sys;
    Sevsnp.Platform.refresh_obs_gauges platform;
    let m = platform.Sevsnp.Platform.metrics in
    if json then print_string (Obs.Json.to_string (Obs.Metrics.to_json m))
    else print_string (Obs.Metrics.dump m)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run the quickstart scenario and dump the unified metrics registry (counters, gauges, \
          histogram percentiles).")
    Term.(const run $ json_arg $ npages_arg $ seed_arg)

(* --- migrate: demonstrate enclave migration between two CVMs --- *)

let migrate_cmd =
  let run npages seed =
    let src = Veil_core.Boot.boot_veil ~npages ~seed () in
    let dst = Veil_core.Boot.boot_veil ~npages ~seed:(seed + 1) () in
    let proc = Guest_kernel.Kernel.spawn src.Veil_core.Boot.kernel in
    let rt =
      match Enclave_sdk.Runtime.create src ~binary:(Bytes.make 5000 'm') proc with
      | Ok rt -> rt
      | Error e -> failwith e
    in
    Enclave_sdk.Runtime.run rt (fun rt ->
        Enclave_sdk.Runtime.write_data rt ~va:(Enclave_sdk.Runtime.heap_base rt)
          (Bytes.of_string "migrate me"));
    Printf.printf "source enclave measurement: %s\n"
      (Veil_crypto.Sha256.hex_of_digest (Enclave_sdk.Runtime.measurement rt));
    match
      Veil_core.Migration.export src (Enclave_sdk.Runtime.enclave rt)
        ~dest_public:(Veil_core.Monitor.dh_public dst.Veil_core.Boot.mon)
    with
    | Error e -> failwith e
    | Ok sealed -> (
        let wire = Veil_core.Migration.sealed_to_bytes sealed in
        Printf.printf "sealed state: %d bytes (encrypted + authenticated for the destination)\n"
          (Bytes.length wire);
        let owner = Guest_kernel.Kernel.spawn dst.Veil_core.Boot.kernel in
        match
          Veil_core.Migration.import dst ~owner
            ~source_public:(Veil_core.Monitor.dh_public src.Veil_core.Boot.mon)
            (Option.get (Veil_core.Migration.sealed_of_bytes wire))
        with
        | Error e -> failwith e
        | Ok enclave ->
            Printf.printf "imported measurement:       %s\n"
              (Veil_crypto.Sha256.hex_of_digest (Veil_core.Encsvc.measurement enclave));
            print_endline "migration complete: same identity, state intact, source scrubbed.")
  in
  Cmd.v
    (Cmd.info "migrate" ~doc:"Migrate an enclave between two Veil CVMs (sealed transport).")
    Term.(const run $ npages_arg $ seed_arg)

(* --- sql: run statements against the mini engine on a fresh guest --- *)

let sql_cmd =
  let stmts_arg =
    let doc = "SQL statements to execute in order." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"STATEMENT" ~doc)
  in
  let run stmts npages seed =
    let n = Veil_core.Boot.boot_native ~npages ~seed () in
    let kernel = n.Veil_core.Boot.n_kernel in
    let proc = Guest_kernel.Kernel.spawn kernel in
    let env =
      {
        Workloads.Env.sys = (fun s a -> Guest_kernel.Kernel.invoke kernel proc s a);
        compute = (fun c -> Sevsnp.Vcpu.charge n.Veil_core.Boot.n_vcpu Sevsnp.Cycles.Compute c);
        env_rng = Veil_crypto.Rng.create seed;
        env_rings = false;
      }
    in
    let db = Workloads.Sqldb.open_db env ~dir:"/srv/sql" in
    List.iter
      (fun stmt ->
        match Workloads.Sqldb.exec db stmt with
        | Ok Workloads.Sqldb.Done -> Printf.printf "ok> %s\n" stmt
        | Ok (Workloads.Sqldb.Rows rows) ->
            Printf.printf "ok> %s\n" stmt;
            List.iter (fun row -> Printf.printf "    | %s\n" (String.concat " | " row)) rows;
            Printf.printf "    (%d row%s)\n" (List.length rows)
              (if List.length rows = 1 then "" else "s")
        | Error e -> Printf.printf "error> %s\n    %s\n" stmt e)
      stmts;
    Workloads.Sqldb.close db
  in
  Cmd.v
    (Cmd.info "sql"
       ~doc:"Execute statements on the B-tree-backed mini SQL engine inside a fresh guest.")
    Term.(const run $ stmts_arg $ npages_arg $ seed_arg)

(* --- scope: Veil-Scope cross-VCPU critical-path / wait-state report --- *)

let scope_cmd =
  let vcpus_arg =
    let doc = "VCPU count for the SMP run (1-8)." in
    Arg.(value & opt int 4 & info [ "vcpus" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Operation count (http requests or syscall ops)." in
    Arg.(value & opt int 64 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let workload_arg =
    let doc = "Workload: http (listener + handlers + clients) or syscall." in
    Arg.(value & opt (enum [ ("http", `Http); ("syscall", `Syscall) ]) `Http
         & info [ "w"; "workload" ] ~docv:"KIND" ~doc)
  in
  let top_arg =
    let doc = "Render the N longest requests' critical paths in full." in
    Arg.(value & opt int 3 & info [ "top" ] ~docv:"N" ~doc)
  in
  let scope_out_arg =
    let doc = "Write the report here (\"-\" = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run kind nvcpus requests top out seed =
    if nvcpus < 1 || nvcpus > 8 then begin
      Printf.eprintf "scope: --vcpus must be in 1..8 (got %d)\n" nvcpus;
      exit 2
    end;
    let module Es = Workloads.Escale in
    let name, spawn_work =
      match kind with
      | `Http -> ("http-server", Es.http_work ~requests)
      | `Syscall -> ("syscall-bench", Es.syscall_work ~ops_total:requests)
    in
    let (r : Es.result), sys = Es.measure ~trace:true ~nvcpus ~seed ~spawn_work () in
    let platform = sys.Veil_core.Boot.platform in
    let tr = platform.Sevsnp.Platform.tracer in
    Obs.Trace.set_enabled tr false;
    Sevsnp.Platform.refresh_obs_gauges platform;
    let reqs = Obs.Critpath.requests (Obs.Trace.events tr) in
    let summary = Obs.Critpath.summarize reqs in
    let buf = Buffer.create 4096 in
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    p "Veil-Scope — cross-VCPU critical paths and wait states\n";
    p "workload: %s, %d VCPUs, %d ops, guest seed %d, interleaver seeded(%d)\n" name nvcpus
      r.Es.es_ops seed Es.inter_seed;
    p "trace: %d events stored (capacity %d)" (Obs.Trace.stored tr) (Obs.Trace.capacity tr);
    if Obs.Trace.dropped tr > 0 then
      p "; WARNING: %d events dropped to ring wraparound — earliest requests are partial"
        (Obs.Trace.dropped tr);
    p "\n\n%s" (Obs.Critpath.render_summary summary);
    (* the N longest requests, in full *)
    let by_extent =
      List.stable_sort
        (fun a b -> compare (Obs.Critpath.extent b) (Obs.Critpath.extent a))
        reqs
    in
    let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> [] in
    List.iter (fun rq -> p "\n%s" (Obs.Critpath.render rq)) (take top by_extent);
    (* serialized-monitor ledger: the single-server-queue view *)
    let w = r.Es.es_wait in
    p "\nserialized monitor (VeilMon entry ledger, measurement window only):\n";
    p "  %-20s %8s %14s %14s\n" "call type" "entries" "busy cyc" "queued cyc";
    List.iter
      (fun (tag, entries, busy, queued) ->
        p "  %-20s %8d %14d %14d\n" tag entries busy queued)
      w.Veil_core.Monitor.ws_by_type;
    p "  %-20s %8d %14d %14d\n" "total" w.Veil_core.Monitor.ws_entries
      w.Veil_core.Monitor.ws_busy_cycles w.Veil_core.Monitor.ws_queued_cycles;
    let ser = Es.serialized_pct r in
    let ceiling = Es.amdahl_ceiling ~serial_frac:(ser /. 100.0) ~nvcpus in
    p "measured serialized share: %.1f%% of %d busy cycles held the monitor\n" ser r.Es.es_busy;
    p "implied hardware Amdahl ceiling @%d VCPUs: %.2fx\n" nvcpus ceiling;
    if out = "-" then print_string (Buffer.contents buf)
    else begin
      write_file_or_die out (Buffer.contents buf);
      Printf.printf "wrote %s\n" out
    end
  in
  Cmd.v
    (Cmd.info "scope"
       ~doc:
         "Run an SMP workload with tracing armed and print the Veil-Scope report: per-request \
          critical paths (work vs wait per VMPL and wait reason, reconstructed from causal ids) \
          plus the serialized-monitor entry ledger and the hardware scaling ceiling it implies.")
    Term.(const run $ workload_arg $ vcpus_arg $ requests_arg $ top_arg $ scope_out_arg $ seed_arg)

(* --- report: regenerate the paper tables from profiler attribution
   and diff them against EXPERIMENTS.md --- *)

(* Cells like "6,210", "42,384", "7135" → int (digits only). *)
let int_of_cell s =
  let b = Buffer.create 8 in
  String.iter (fun c -> if c >= '0' && c <= '9' then Buffer.add_char b c) s;
  if Buffer.length b = 0 then invalid_arg (Printf.sprintf "no digits in cell %S" s)
  else int_of_string (Buffer.contents b)

(* Cells like "0.72%", "~0.3%", "1.5k", "6.8×" → float (digits + dot). *)
let float_of_cell s =
  let b = Buffer.create 8 in
  String.iter (fun c -> if (c >= '0' && c <= '9') || c = '.' then Buffer.add_char b c) s;
  if Buffer.length b = 0 then invalid_arg (Printf.sprintf "no number in cell %S" s)
  else float_of_string (Buffer.contents b)

let starts_with pre s =
  String.length s >= String.length pre && String.sub s 0 (String.length pre) = pre

(* Lines of the "## <name>..." section, up to the next "## ". *)
let md_section md name =
  let rec skip = function
    | [] -> []
    | l :: rest -> if starts_with ("## " ^ name) l then take rest [] else skip rest
  and take lines acc =
    match lines with
    | [] -> List.rev acc
    | l :: rest -> if starts_with "## " l then List.rev acc else take rest (l :: acc)
  in
  skip (String.split_on_char '\n' md)

let row_cells line =
  String.split_on_char '|' line |> List.map String.trim |> List.filter (fun c -> c <> "")

(* Table rows are keyed by the first word of their first cell,
   lowercased with '-' stripped ("read (10 KB)" -> "read",
   "7-Zip" -> "7zip"). *)
let row_key cell =
  let first = match String.split_on_char ' ' cell with w :: _ -> w | [] -> "" in
  String.lowercase_ascii (String.concat "" (String.split_on_char '-' first))

let find_row section key =
  List.find_map
    (fun l ->
      match row_cells l with
      | first :: _ when starts_with "|" (String.trim l) && row_key first = key ->
          Some (row_cells l)
      | _ -> None)
    section

let report_cmd =
  let check_arg =
    let doc = "Exit non-zero if any regenerated value drifts from EXPERIMENTS.md." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let experiments_arg =
    let doc = "Path to the EXPERIMENTS.md to diff against." in
    Arg.(value & opt string "EXPERIMENTS.md" & info [ "experiments" ] ~docv:"FILE" ~doc)
  in
  let run check exp_path =
    let md =
      match open_in exp_path with
      | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
      | exception Sys_error msg ->
          Printf.eprintf "cannot read %s: %s\n" exp_path msg;
          exit 1
    in
    let drifts = ref 0 in
    let verdict ok =
      if ok then "ok"
      else begin
        incr drifts;
        "DRIFT"
      end
    in
    let check_int label measured expected =
      Printf.printf "  %-28s measured %10d   expected %10d   %s\n" label measured expected
        (verdict (measured = expected))
    in
    let check_float label measured expected ~tol =
      Printf.printf "  %-28s measured %10.2f   expected %10.2f   %s\n" label measured expected
        (verdict (Float.abs (measured -. expected) <= tol))
    in
    let cell cells i label =
      match List.nth_opt cells i with
      | Some c -> c
      | None -> failwith (Printf.sprintf "EXPERIMENTS.md: missing cell %d in %s row" i label)
    in
    let need section key =
      match find_row section key with
      | Some cells -> cells
      | None -> failwith (Printf.sprintf "EXPERIMENTS.md: no table row for %S" key)
    in

    (* E2 — domain-switch legs, regenerated from Veil-Prof attribution.
       Expected values come from the calibration-anchors row
       "7135 = 550+2450+200+935+550+2450" (same leg order). *)
    print_endline "E2  domain-switch breakdown (profiler attribution vs anchors)";
    let anchors = md_section md "Cycle-model" in
    let anchor_cells = need anchors "domain" in
    let total_exp, legs_exp =
      match String.split_on_char '=' (cell anchor_cells 1 "domain switch") with
      | [ tot; sum ] ->
          (int_of_cell tot, List.map int_of_cell (String.split_on_char '+' sum))
      | _ -> failwith "EXPERIMENTS.md: anchors row is not \"total = a+b+...\""
    in
    let sys = Veil_core.Boot.boot_veil ~npages:2048 ~seed:3 () in
    let platform = sys.Veil_core.Boot.platform in
    let prof = platform.Sevsnp.Platform.profiler in
    Obs.Profiler.reset prof;
    Obs.Profiler.set_enabled prof true;
    let vcpu = sys.Veil_core.Boot.vcpu in
    let switches = 2000 in
    for _ = 1 to switches / 2 do
      Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Mon;
      Veil_core.Monitor.domain_switch sys.Veil_core.Boot.mon vcpu ~target:Veil_core.Privdom.Unt
    done;
    Obs.Profiler.set_enabled prof false;
    let legs =
      [ "vmgexit"; "vmsa_save"; "ghcb_protocol"; "hv_relay"; "vmenter"; "vmsa_restore" ]
    in
    if List.length legs_exp <> List.length legs then
      failwith "EXPERIMENTS.md: anchors row leg count changed";
    let measured_total = ref 0 in
    List.iter2
      (fun leg exp ->
        let m = Obs.Profiler.bucket_self prof leg / switches in
        measured_total := !measured_total + m;
        check_int (Printf.sprintf "switch leg %s" leg) m exp)
      legs legs_exp;
    check_int "switch total" !measured_total total_exp;

    (* E4 — per-syscall redirection table, re-run from the shared
       Syscall_bench definitions (same driver parameters as bench e4). *)
    print_endline "E4  enclave syscall redirection (Table 3)";
    let e4 = md_section md "E4" in
    let iterations = 400 in
    List.iter
      (fun sb ->
        let name = sb.Workloads.Syscall_bench.sb_name in
        let cells = need e4 name in
        let w = Workloads.Syscall_bench.workload_of ~iterations sb in
        let native = Workloads.Driver.run ~npages:4096 Workloads.Driver.Native w in
        let enc = Workloads.Driver.run ~npages:4096 Workloads.Driver.Enclave w in
        let per_native = native.Workloads.Driver.cycles / iterations in
        let per_enc = enc.Workloads.Driver.cycles / iterations in
        check_int (name ^ " native cyc") per_native (int_of_cell (cell cells 1 name));
        check_int (name ^ " enclave cyc") per_enc (int_of_cell (cell cells 2 name));
        check_float (name ^ " slowdown") ~tol:0.05
          (float_of_int per_enc /. float_of_int per_native)
          (float_of_cell (cell cells 3 name)))
      Workloads.Syscall_bench.all;

    (* E6 — audit overhead table (same runs as bench e6 at scale 1). *)
    print_endline "E6  protected system auditing (Table 5)";
    let e6 = md_section md "E6" in
    List.iter
      (fun w ->
        let name = w.Workloads.Workload.name in
        let cells = need e6 name in
        let base = Workloads.Driver.run ~scale:1 Workloads.Driver.Veil_background w in
        let ka = Workloads.Driver.run ~scale:1 Workloads.Driver.Kaudit w in
        let vl = Workloads.Driver.run ~scale:1 Workloads.Driver.Veils_log w in
        check_float (name ^ " kaudit %") ~tol:0.005
          (Workloads.Driver.overhead_pct ~baseline:base ka)
          (float_of_cell (cell cells 1 name));
        check_float (name ^ " veils-log %") ~tol:0.005
          (Workloads.Driver.overhead_pct ~baseline:base vl)
          (float_of_cell (cell cells 3 name));
        check_float (name ^ " logs/s (k)") ~tol:0.05
          (Workloads.Driver.rate_per_second vl vl.Workloads.Driver.audit_records /. 1000.0)
          (float_of_cell (cell cells 5 name)))
      (Workloads.Registry.audit_programs ());

    (* E-scale — serialized-monitor share, re-measured by the Veil-Scope
       entry ledger and diffed against the table's serialized% column;
       the ceiling the measurement implies must also reproduce the
       hw-amdahl column (within 10%), i.e. ground truth agrees with
       what the 1-VCPU bucket share inferred. *)
    print_endline "E-scale  serialized-monitor share (Veil-Scope entry ledger)";
    let escale_sec = md_section md "E-scale" in
    let split_at_http lines =
      let rec go acc = function
        | [] -> (List.rev acc, [])
        | l :: rest when starts_with "http-server" l -> (List.rev acc, rest)
        | l :: rest -> go (l :: acc) rest
      in
      go [] lines
    in
    let sys_rows, http_rows = split_at_http escale_sec in
    let module Es = Workloads.Escale in
    let counts =
      (* the full 1/2/4/8 sweep doubles report runtime; 1 and 4 pin the
         no-contention base and the contended point (override with
         VEIL_ESCALE_VCPUS for the full sweep) *)
      match Sys.getenv_opt "VEIL_ESCALE_VCPUS" with
      | Some _ -> Es.vcpu_counts ()
      | None -> [ 1; 4 ]
    in
    List.iter
      (fun (bench, rows, spawn_work) ->
        List.iter
          (fun nv ->
            let cells = need rows (string_of_int nv) in
            let (r : Es.result), _ = Es.measure ~nvcpus:nv ~seed:97 ~spawn_work () in
            let ser = Es.serialized_pct r in
            check_float
              (Printf.sprintf "%s @%d serialized%%" bench nv)
              ser
              (float_of_cell (cell cells 4 (bench ^ " serialized%")))
              ~tol:0.05;
            let hw = float_of_cell (cell cells 3 (bench ^ " hw-amdahl")) in
            check_float
              (Printf.sprintf "%s @%d measured ceiling" bench nv)
              (Es.amdahl_ceiling ~serial_frac:(ser /. 100.0) ~nvcpus:nv)
              hw
              ~tol:((0.1 *. hw) +. 0.005))
          counts)
      [ ("syscall-bench", sys_rows, fun s m -> Es.syscall_work ~ops_total:4096 s m);
        ("http-server", http_rows, fun s m -> Es.http_work ~requests:256 s m) ];

    (* E-scale-rings — the same sweep under Veil-Ring batched
       submission (bench escale --rings).  The serialized% column must
       reproduce AND stay below the unringed E-scale share at every
       row: batching is the whole point, so a ringed share at or above
       the unringed one is flagged as drift. *)
    print_endline "E-scale-rings  serialized share under batched submission (Veil-Ring)";
    let rings_sec = md_section md "E-scale-rings" in
    if rings_sec = [] then failwith "EXPERIMENTS.md: no \"## E-scale-rings\" section";
    let ringed_sys_rows, ringed_http_rows = split_at_http rings_sec in
    List.iter
      (fun (bench, rows, plain_rows, spawn_work) ->
        List.iter
          (fun nv ->
            let cells = need rows (string_of_int nv) in
            let (r : Es.result), _ =
              Es.measure ~rings:true ~nvcpus:nv ~seed:97 ~spawn_work ()
            in
            let ser = Es.serialized_pct r in
            check_float
              (Printf.sprintf "%s @%d ringed ser%%" bench nv)
              ser
              (float_of_cell (cell cells 4 (bench ^ " ringed serialized%")))
              ~tol:0.05;
            let plain_ser =
              float_of_cell (cell (need plain_rows (string_of_int nv)) 4 (bench ^ " serialized%"))
            in
            Printf.printf "  %-28s measured %10.2f   unringed %10.2f   %s\n"
              (Printf.sprintf "%s @%d ringed<plain" bench nv)
              ser plain_ser
              (verdict (ser < plain_ser)))
          counts)
      [ ("syscall-bench", ringed_sys_rows, sys_rows, fun s m -> Es.syscall_work ~ops_total:4096 s m);
        ("http-server", ringed_http_rows, http_rows, fun s m -> Es.http_work ~requests:256 s m) ];

    if !drifts = 0 then Printf.printf "all regenerated values match %s\n" exp_path
    else Printf.printf "%d value(s) drifted from %s\n" !drifts exp_path;
    if check && !drifts > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate the paper's E2/E4/E6 tables (domain-switch legs from Veil-Prof \
          attribution, syscall-redirection and audit-overhead runs) and diff them against \
          EXPERIMENTS.md; --check fails on any drift.")
    Term.(const run $ check_arg $ experiments_arg)

(* --- chaos (ISSUE 4): deterministic hypervisor fault injection --- *)

let chaos_cmd =
  let trials_arg =
    let doc = "Rounds of (all workloads + attack sweep) per run." in
    Arg.(value & opt int 3 & info [ "k"; "trials" ] ~docv:"K" ~doc)
  in
  let sites_arg =
    let doc =
      "Comma-separated injection sites to arm (default: all 14).  Site names: relay_drop, \
       relay_dup, relay_reorder, relay_refuse, vmgexit_delay, vmgexit_refuse, spurious_exit, \
       rmpadjust_fail, pvalidate_fail, spurious_npf, ghcb_corrupt, shared_bitflip, \
       ring_slot_corrupt, pulse_export_tamper."
    in
    Arg.(value & opt (some string) None & info [ "sites" ] ~docv:"SITES" ~doc)
  in
  let workloads_arg =
    let doc = "Comma-separated workloads to run (boot,syscall,enclave,slog; default: all)." in
    Arg.(value & opt (some string) None & info [ "w"; "workloads" ] ~docv:"WORKLOADS" ~doc)
  in
  let json_arg =
    let doc = "Print the machine-readable report (effective seed, per-site hit counts)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let vcpus_arg =
    let doc =
      "Run the syscall workload on N VCPUs (1-8) under the deterministic SMP interleaver, so AP \
       bring-up crosses the fault-injected monitor protocols too.  1 (the default) keeps the \
       pre-SMP schedule byte-for-byte."
    in
    Arg.(value & opt int 1 & info [ "vcpus" ] ~docv:"N" ~doc)
  in
  let parse_csv ~what ~of_name s =
    List.map
      (fun n ->
        match of_name (String.trim n) with
        | Some v -> v
        | None ->
            Printf.eprintf "unknown %s: %s\n" what n;
            exit 2)
      (String.split_on_char ',' s)
  in
  let run seed trials sites workloads json vcpus =
    if vcpus < 1 || vcpus > 8 then begin
      Printf.eprintf "chaos: --vcpus must be in 1..8 (got %d)\n" vcpus;
      exit 2
    end;
    let sites =
      Option.map
        (parse_csv ~what:"injection site" ~of_name:Chaos.Fault_plan.site_of_name)
        sites
    in
    let workloads =
      match workloads with
      | None -> Chaos_driver.all_workloads
      | Some s -> parse_csv ~what:"workload" ~of_name:Chaos_driver.workload_of_name s
    in
    let r = Chaos_driver.run ?sites ~trials ~workloads ~vcpus ~seed () in
    if json then print_endline (Obs.Json.to_string (Chaos_driver.report_json r))
    else begin
      Printf.printf "veil-chaos: seed %d, %d trial(s) x %d workload(s) + %d attacks\n" seed
        trials (List.length workloads) r.Chaos_driver.rp_attacks_run;
      List.iter
        (fun t ->
          Printf.printf "  %-8s seed=%-10d steps=%-6d hits=%-4d %s\n"
            (Chaos_driver.workload_name t.Chaos_driver.tr_workload)
            t.Chaos_driver.tr_seed t.Chaos_driver.tr_steps
            (Chaos.Fault_plan.total_hits t.Chaos_driver.tr_plan)
            (Chaos_driver.outcome_to_string t.Chaos_driver.tr_outcome))
        r.Chaos_driver.rp_trials;
      Printf.printf "  site hits:";
      List.iter (fun (n, h) -> if h > 0 then Printf.printf " %s=%d" n h) r.Chaos_driver.rp_site_hits;
      print_newline ();
      List.iter
        (fun (n, o) -> Printf.printf "  BREACHED under chaos: %s (%s)\n" n o)
        r.Chaos_driver.rp_breached;
      Printf.printf "  replay identity: %s\n" (if r.Chaos_driver.rp_replay_ok then "OK" else "FAILED");
      Printf.printf "%s\n" (if r.Chaos_driver.rp_ok then "chaos: all invariants held" else "chaos: INVARIANT VIOLATION")
    end;
    if not r.Chaos_driver.rp_ok then begin
      Printf.eprintf
        "chaos: invariant violation — replay with: veilctl chaos --seed %d --trials %d --vcpus %d\n"
        seed trials vcpus;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run boot/syscall/enclave/slog workloads and the full attack suite under \
          seed-deterministic hypervisor fault injection, asserting no breach, no silent \
          corruption and no hang.  A failing plan is reproduced exactly from the printed seed.")
    Term.(const run $ seed_arg $ trials_arg $ sites_arg $ workloads_arg $ json_arg $ vcpus_arg)

(* --- pulse (ISSUE 8): continuous telemetry timeline + attested export --- *)

let pulse_cmd =
  let vcpus_arg =
    let doc = "VCPU count for the SMP run (1-8)." in
    Arg.(value & opt int 4 & info [ "vcpus" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Operation count (http requests or syscall ops)." in
    Arg.(value & opt int 256 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let workload_arg =
    let doc = "Workload: http (listener + handlers + clients) or syscall." in
    Arg.(value & opt (enum [ ("http", `Http); ("syscall", `Syscall) ]) `Http
         & info [ "w"; "workload" ] ~docv:"KIND" ~doc)
  in
  let intervals_arg =
    let doc =
      "Target interval count: a calibration run learns the workload's wall clock, then the \
       sampling epoch is set to wall/N so the timeline lands near N intervals."
    in
    Arg.(value & opt int 24 & info [ "intervals" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Print the machine-readable per-interval timeseries instead of the timeline." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let pulse_out_arg =
    let doc = "Write the report here (\"-\" = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let chrome_arg =
    let doc =
      "Also record a trace and write Chrome trace-event JSON with Veil-Pulse counter tracks \
       (syscall rate, windowed p99, vmgexit rate) to this file."
    in
    Arg.(value & opt (some string) None & info [ "chrome" ] ~docv:"FILE" ~doc)
  in
  let run kind nvcpus requests target json out chrome seed =
    if nvcpus < 1 || nvcpus > 8 then begin
      Printf.eprintf "pulse: --vcpus must be in 1..8 (got %d)\n" nvcpus;
      exit 2
    end;
    if target < 2 then begin
      Printf.eprintf "pulse: --intervals must be >= 2 (got %d)\n" target;
      exit 2
    end;
    let module Es = Workloads.Escale in
    let name, spawn_work =
      match kind with
      | `Http -> ("http-server", Es.http_work ~requests)
      | `Syscall -> ("syscall-bench", Es.syscall_work ~ops_total:requests)
    in
    (* Calibration run, pulse off: learn the wall clock so the epoch
       yields about [target] intervals whatever the workload size. *)
    let (r0 : Es.result), _ = Es.measure ~nvcpus ~seed ~spawn_work () in
    let interval = max 1_000 (r0.Es.es_wall / target) in
    let trace = chrome <> None in
    let (r : Es.result), sys = Es.measure ~trace ~pulse:interval ~nvcpus ~seed ~spawn_work () in
    let platform = sys.Veil_core.Boot.platform in
    let pu = platform.Sevsnp.Platform.pulse in
    if trace then Obs.Trace.set_enabled platform.Sevsnp.Platform.tracer false;
    (* Attested export: what a hypervisor would ship to a verifier,
       checked against the trusted in-ring digests and chain. *)
    let exported = Sevsnp.Platform.export_pulse platform in
    let verify = Obs.Pulse.verify_export pu exported in
    let anchors = List.length (Veil_core.Boot.pulse_anchor_lines sys) in
    if json then begin
      let module J = Obs.Json in
      let verify =
        match verify with
        | Ok n -> J.Obj [ ("ok", J.Bool true); ("intervals", J.Int n) ]
        | Error (i, reason) ->
            J.Obj [ ("ok", J.Bool false); ("interval", J.Int i); ("reason", J.Str reason) ]
      in
      let doc =
        J.to_string
          (J.Obj
             [
               ("workload", J.Str name); ("vcpus", J.Int nvcpus); ("ops", J.Int r.Es.es_ops);
               ("seed", J.Int seed); ("verify", verify); ("anchors", J.Int anchors);
               ("pulse", Es.pulse_json sys);
             ])
        ^ "\n"
      in
      if out = "-" then print_string doc
      else begin
        write_file_or_die out doc;
        Printf.printf "wrote %s\n" out
      end
    end
    else begin
      let buf = Buffer.create 4096 in
      let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
      p "Veil-Pulse — continuous telemetry with attested export\n";
      p "workload: %s, %d VCPUs, %d ops, guest seed %d, interleaver seeded(%d)\n" name nvcpus
        r.Es.es_ops seed Es.inter_seed;
      p "epoch: %d cycles (calibrated for ~%d intervals over a %d-Mcyc wall)\n" interval target
        (r0.Es.es_wall / 1_000_000);
      p "captured %d intervals (%d retained, %d overwritten), %d anchors in VeilS-LOG\n"
        (Obs.Pulse.captured pu) (Obs.Pulse.retained pu) (Obs.Pulse.overwritten pu) anchors;
      (match verify with
      | Ok n -> p "attested export: OK — %d interval digests and the chain head verified\n" n
      | Error (i, reason) -> p "attested export: TAMPERED — interval %d: %s\n" i reason);
      p "\n  %-4s %9s %9s %8s %8s %8s  %s\n" "iv" "t1 Mcyc" "syscalls" "p50" "p99" "p999"
        "syscalls/interval";
      let first = Obs.Pulse.first_retained pu in
      let last = Obs.Pulse.captured pu - 1 in
      let series =
        List.init (last - first + 1) (fun k ->
            let i = first + k in
            let t1 = match Obs.Pulse.bounds pu i with Some (_, t1) -> t1 | None -> 0 in
            match Obs.Pulse.hist_window pu ~metric:"kernel.syscall_cycles" ~window:1 ~upto:i with
            | Some (b, n, _) ->
                ( i, t1, n,
                  Obs.Pulse.wpercentile ~buckets:b 50.0,
                  Obs.Pulse.wpercentile ~buckets:b 99.0,
                  Obs.Pulse.wpercentile ~buckets:b 99.9 )
            | None -> (i, t1, 0, 0, 0, 0))
      in
      let peak = List.fold_left (fun m (_, _, n, _, _, _) -> max m n) 1 series in
      List.iter
        (fun (i, t1, n, p50, p99, p999) ->
          p "  %-4d %9.2f %9d %8d %8d %8d %s|%s\n" i
            (float_of_int t1 /. 1e6)
            n p50 p99 p999
            (if p99 > Es.slo_good_below then "!" else " ")
            (String.make (n * 28 / peak) '#'))
        series;
      p "\nSLO burn (trailing %d-interval windows, budget = (1-slo) x total):\n" Es.slo_window;
      List.iter
        (fun (br : Obs.Pulse.burn_report) ->
          p "  %s: %.0f%% of %s <= %d cyc — window total %d, bad %d, budget %.1f, burn %.2fx%s, \
             %d crossing(s)\n"
            br.Obs.Pulse.br_name
            (100.0 *. br.Obs.Pulse.br_slo)
            br.Obs.Pulse.br_metric br.Obs.Pulse.br_good_below br.Obs.Pulse.br_total
            br.Obs.Pulse.br_bad br.Obs.Pulse.br_budget br.Obs.Pulse.br_burn
            (if br.Obs.Pulse.br_crossed then " OVER BUDGET" else "")
            br.Obs.Pulse.br_crossings)
        (Obs.Pulse.burn_reports pu);
      if out = "-" then print_string (Buffer.contents buf)
      else begin
        write_file_or_die out (Buffer.contents buf);
        Printf.printf "wrote %s\n" out
      end
    end;
    Option.iter
      (fun path ->
        write_file_or_die path
          (Obs.Chrome_trace.to_json ~pulse:pu platform.Sevsnp.Platform.tracer);
        Printf.printf "wrote %s (span tracks + pulse counter tracks)\n" path)
      chrome;
    match verify with Ok _ -> () | Error _ -> exit 1
  in
  Cmd.v
    (Cmd.info "pulse"
       ~doc:
         "Run an SMP workload with the Veil-Pulse sampler armed and print the per-interval \
          telemetry timeline (windowed p50/p99/p999, syscall rate) plus the SLO error-budget \
          burn report, verifying the attested export chain; --json emits the timeseries, \
          --chrome adds Perfetto counter tracks.")
    Term.(const run $ workload_arg $ vcpus_arg $ requests_arg $ intervals_arg $ json_arg
          $ pulse_out_arg $ chrome_arg $ seed_arg)

(* --- bench: trajectory regression gate against a recorded baseline --- *)

let bench_cmd =
  let baseline_arg =
    let doc = "Baseline bench JSON (a committed BENCH_prN.json) to gate against." in
    Arg.(required & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let tol_arg =
    let doc = "Allowed relative regression before the gate fails (0.05 = 5%)." in
    Arg.(value & opt float 0.05 & info [ "tolerance" ] ~docv:"FRAC" ~doc)
  in
  let vcpus_filter_arg =
    let doc = "Only gate these VCPU counts (comma-separated; default: all in the baseline)." in
    Arg.(value & opt (some string) None & info [ "vcpus" ] ~docv:"LIST" ~doc)
  in
  let run baseline tol vcpus_filter seed =
    let doc =
      match open_in baseline with
      | ic ->
          let n = in_channel_length ic in
          let s = really_input_string ic n in
          close_in ic;
          s
      | exception Sys_error msg ->
          Printf.eprintf "cannot read %s: %s\n" baseline msg;
          exit 1
    in
    let wanted =
      Option.map
        (fun s -> List.filter_map int_of_string_opt (String.split_on_char ',' s))
        vcpus_filter
    in
    let module J = Obs.Json in
    let entries =
      match J.parse doc with
      | Ok v -> (match J.member "veil_escale" v with Some (J.List l) -> l | _ -> [])
      | Error e ->
          Printf.eprintf "bench: %s is not valid JSON: %s\n" baseline e;
          exit 1
    in
    if entries = [] then begin
      Printf.eprintf "bench: no \"veil_escale\" entries in %s\n" baseline;
      exit 1
    end;
    let module Es = Workloads.Escale in
    Printf.printf "veilctl bench — trajectory gate against %s (tolerance %.0f%%)\n" baseline
      (100.0 *. tol);
    Printf.printf "  %-14s %3s %5s %7s %12s %12s %8s %8s  %s\n" "bench" "nv" "rings" "pulse"
      "base ops/s" "now ops/s" "base ser" "now ser" "verdict";
    let regressions = ref 0 in
    List.iter
      (fun entry ->
        let bad what =
          Printf.eprintf "bench: entry in %s has no %s: %s\n" baseline what (J.to_string entry);
          exit 1
        in
        let field key = J.member key entry in
        let int key = match field key with Some (J.Int n) -> n | _ -> bad ("integer " ^ key) in
        let num key =
          match field key with
          | Some (J.Int n) -> float_of_int n
          | Some (J.Num s) -> float_of_string s
          | _ -> bad ("number " ^ key)
        in
        let bench = match field "bench" with Some (J.Str b) -> b | _ -> bad "string bench" in
        let nv = int "vcpus" and ops = int "ops" in
        let base_tp = num "ops_per_s" and base_ser = num "serialized_pct" in
        (* Rows recorded before Veil-Ring carry no "rings" key and ran
           without rings; a row with a "pulse" series was recorded with
           the sampler armed at that interval, which costs cycles. *)
        let rings =
          match field "rings" with None -> false | Some (J.Bool b) -> b | _ -> bad "boolean rings"
        in
        let pulse =
          match field "pulse" with
          | None -> None
          | Some p -> (
              match J.member "interval" p with Some (J.Int n) -> Some n | _ -> bad "pulse interval")
        in
        if (match wanted with Some l -> List.mem nv l | None -> true) then begin
          let spawn_work =
            match bench with
            | "syscall-bench" -> Es.syscall_work ~ops_total:ops
            | "http-server" -> Es.http_work ~requests:ops
            | other ->
                Printf.eprintf "bench: unknown baseline bench %S\n" other;
                exit 1
          in
          let (r : Es.result), _ = Es.measure ~rings ?pulse ~nvcpus:nv ~seed ~spawn_work () in
          let tp = Es.throughput r in
          let ser = Es.serialized_pct r in
          (* Throughput gates one-sided (faster is fine); the
             serialized share gates with an absolute 0.5pp slack on
             top, since 1%-scale shares jitter in the last digit. *)
          let tp_ok = tp >= base_tp *. (1.0 -. tol) in
          let ser_ok = ser <= (base_ser *. (1.0 +. tol)) +. 0.5 in
          if not (tp_ok && ser_ok) then incr regressions;
          Printf.printf "  %-14s %3d %5s %7s %12.1f %12.1f %7.1f%% %7.1f%%  %s\n" bench nv
            (if rings then "on" else "off")
            (match pulse with Some n -> string_of_int n | None -> "off")
            base_tp tp base_ser ser
            (if tp_ok && ser_ok then "ok"
             else if tp_ok then "REGRESSION (serialized share)"
             else "REGRESSION (throughput)")
        end)
      entries;
    if !regressions > 0 then begin
      Printf.printf "%d baseline row(s) regressed beyond %.0f%%\n" !regressions (100.0 *. tol);
      exit 1
    end
    else print_endline "trajectory gate: no regression against baseline"
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Re-run the E-scale benches recorded in a committed BENCH_prN.json baseline and fail \
          (exit 1) if throughput drops or the serialized-monitor share grows beyond the \
          tolerance — the cross-PR trajectory regression gate.")
    Term.(const run $ baseline_arg $ tol_arg $ vcpus_filter_arg $ seed_arg)

(* --- explore (ISSUE 9): exhaustive interleaving search --- *)

let explore_cmd =
  let module E = Explore in
  let scenario_arg =
    let doc =
      "Comma-separated scenarios to explore (default: the four standard ones).  Names: \
       ap-race, rmp-shootdown, oscall-replay, ring-race; the test-only weakened-replay \
       scenario must be named explicitly."
    in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAMES" ~doc)
  in
  let budget_arg =
    let doc = "Max branch executions per scenario; alternatives beyond it are reported as the open frontier." in
    Arg.(value & opt int E.default_config.E.cf_budget & info [ "budget" ] ~docv:"N" ~doc)
  in
  let max_steps_arg =
    let doc = "Interleaver steps per branch before the schedule watchdog trips." in
    Arg.(value & opt int E.default_config.E.cf_max_steps & info [ "max-steps" ] ~docv:"N" ~doc)
  in
  let json_arg =
    let doc = "Print the machine-readable report (branch counts, pruning ratio, frontier coverage)." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let replay_arg =
    let doc =
      "Replay the veil-explore artifact line(s) in $(docv) byte-for-byte instead of exploring; \
       fails unless every journal reproduces its recorded outcome class."
    in
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"JOURNAL" ~doc)
  in
  let out_arg =
    let doc = "Write one veil-explore artifact line per minimized counterexample to $(docv)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let expect_arg =
    let doc =
      "Invert the exit status: succeed only if a violation IS found (used by tests/CI to \
       demonstrate detect -> minimize -> replay on the weakened scenario)."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let run seed scenarios budget max_steps json replay out expect =
    let config =
      { E.default_config with E.cf_budget = budget; cf_max_steps = max_steps; cf_seed = seed }
    in
    match replay with
    | Some path ->
        let ic = open_in path in
        let failures = ref 0 and lines = ref 0 in
        (try
           while true do
             let line = input_line ic in
             if String.trim line <> "" then begin
               incr lines;
               match E.parse_artifact line with
               | Error e ->
                   incr failures;
                   Printf.printf "replay: BAD ARTIFACT: %s (%s)\n" (String.trim line) e
               | Ok af -> (
                   match E.replay ~config af with
                   | Ok msg -> Printf.printf "replay: %s\n" msg
                   | Error e ->
                       incr failures;
                       Printf.printf "replay: FAILED: %s\n" e)
             end
           done
         with End_of_file -> close_in ic);
        if !lines = 0 then begin
          Printf.eprintf "explore: no artifact lines in %s\n" path;
          exit 2
        end;
        if !failures > 0 then exit 1
    | None ->
        let scenarios =
          match scenarios with
          | None -> E.all_scenarios
          | Some s ->
              List.map
                (fun n ->
                  let n = String.trim n in
                  match E.find_scenario n with
                  | Some sc -> sc
                  | None ->
                      Printf.eprintf "unknown scenario: %s\n" n;
                      exit 2)
                (String.split_on_char ',' s)
        in
        let reports = List.map (fun sc -> E.explore ~config sc) scenarios in
        let violations =
          List.filter_map (fun r -> Option.map (fun cx -> (r, cx)) r.E.rr_violation) reports
        in
        if json then print_endline (Obs.Json.to_string (E.report_json reports))
        else begin
          Printf.printf "veil-explore: %d scenario(s), budget %d branches, %d interleaver steps\n"
            (List.length reports) budget max_steps;
          List.iter
            (fun r ->
              Printf.printf
                "  %-16s vcpus=%d branches=%-4d points=%-4d pruned=%-4d deferred=%-4d \
                 depth=%-3d prune=%.0f%% coverage=%.0f%% %s\n"
                r.E.rr_scenario r.E.rr_nvcpus r.E.rr_runs r.E.rr_branch_points r.E.rr_pruned
                r.E.rr_deferred r.E.rr_max_depth
                (100.0 *. E.pruning_ratio r)
                (100.0 *. E.frontier_coverage r)
                (if E.exhausted r then "exhausted" else "budget-bounded");
              match r.E.rr_violation with
              | None -> ()
              | Some cx ->
                  Printf.printf
                    "    VIOLATION %s after %d branch(es): journal %S (%d -> %d steps, %d \
                     shrink runs)\n"
                    cx.E.cx_detail cx.E.cx_found_after cx.E.cx_journal cx.E.cx_orig_len
                    (String.length cx.E.cx_journal)
                    cx.E.cx_shrink_runs)
            reports
        end;
        (match out with
        | Some path when violations <> [] ->
            let oc = open_out path in
            List.iter
              (fun (_, cx) -> output_string oc (E.artifact_of_counterexample cx ^ "\n"))
              violations;
            close_out oc;
            Printf.eprintf "explore: wrote %d artifact line(s) to %s\n" (List.length violations)
              path
        | _ -> ());
        if expect then begin
          if violations = [] then begin
            Printf.eprintf "explore: expected a violation, found none\n";
            exit 1
          end
        end
        else if violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Enumerate the schedule tree of bounded SMP scenarios over the monitor protocols \
          (DFS with sleep-set pruning and a branch budget), re-checking the chaos invariants \
          plus slog-chain/IDCB/Dom_MON/ring-cache invariants on every branch; violations are \
          shrunk to a minimal schedule journal replayable byte-for-byte with --replay.")
    Term.(const run $ seed_arg $ scenario_arg $ budget_arg $ max_steps_arg $ json_arg
          $ replay_arg $ out_arg $ expect_arg)

(* --- fleet --- *)

let fleet_cmd =
  let guests_arg =
    let doc = "Number of guest platform instances." in
    Arg.(value & opt int 4 & info [ "g"; "guests" ] ~docv:"N" ~doc)
  in
  let vcpus_arg =
    let doc = "Service lanes (VCPUs) per guest (1-8)." in
    Arg.(value & opt int 4 & info [ "vcpus" ] ~docv:"N" ~doc)
  in
  let requests_arg =
    let doc = "Total arrivals across the fleet." in
    Arg.(value & opt int 400 & info [ "n"; "requests" ] ~docv:"N" ~doc)
  in
  let workload_arg =
    let doc = "Workload served by every guest: http, memcached or sqldb." in
    Arg.(value
         & opt (enum [ ("http", Fleet.Http); ("memcached", Fleet.Memcached); ("sqldb", Fleet.Sqldb) ])
             Fleet.Http
         & info [ "w"; "workload" ] ~docv:"KIND" ~doc)
  in
  let arrivals_arg =
    let doc = "Arrival process: poisson or mmpp (2-state bursty)." in
    Arg.(value & opt (enum [ ("poisson", `Poisson); ("mmpp", `Mmpp) ]) `Poisson
         & info [ "arrivals" ] ~docv:"PROC" ~doc)
  in
  let rate_arg =
    let doc = "Offered load in requests/second (0 = calibrate to --util of fleet capacity)." in
    Arg.(value & opt float 0.0 & info [ "rate" ] ~docv:"RPS" ~doc)
  in
  let util_arg =
    let doc = "Target utilization when --rate is 0." in
    Arg.(value & opt float 0.6 & info [ "util" ] ~docv:"U" ~doc)
  in
  let closed_arg =
    let doc = "Closed-loop clients (coordinated-omission baseline) instead of open-loop." in
    Arg.(value & flag & info [ "closed" ] ~doc)
  in
  let lb_arg =
    let doc = "Load balancer policy: rr (deterministic round-robin) or least-loaded." in
    Arg.(value & opt (enum [ ("rr", Fleet.Round_robin); ("least", Fleet.Least_loaded) ])
             Fleet.Round_robin
         & info [ "lb" ] ~docv:"POLICY" ~doc)
  in
  let rings_arg =
    let doc = "Submit monitor calls through Veil-Ring batched rings." in
    Arg.(value & flag & info [ "rings" ] ~doc)
  in
  let chaos_arg =
    let doc = "Arm a per-guest recoverable fault plan derived from the guest seed." in
    Arg.(value & flag & info [ "chaos" ] ~doc)
  in
  let pulse_arg =
    let doc = "Arm Veil-Pulse sampling at this cycle interval." in
    Arg.(value & opt (some int) None & info [ "pulse" ] ~docv:"CYCLES" ~doc)
  in
  let hostile_arg =
    let doc =
      "Run this guest's kernel compromised: it fires cross-tenant probes alongside its \
       traffic (all must be blocked; co-tenants must not move)."
    in
    Arg.(value & opt (some int) None & info [ "hostile" ] ~docv:"GUEST" ~doc)
  in
  let replay_arg =
    let doc = "Run the fleet twice and fail unless the reports are byte-identical." in
    Arg.(value & flag & info [ "replay-check" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the report as JSON." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let fleet_out_arg =
    let doc = "Write the report here (\"-\" = stdout)." in
    Arg.(value & opt string "-" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let run guests vcpus requests workload arrivals rate util closed lb rings chaos pulse hostile
      replay json out seed =
    if vcpus < 1 || vcpus > 8 then begin
      Printf.eprintf "fleet: --vcpus must be in 1..8 (got %d)\n" vcpus;
      exit 2
    end;
    if guests < 1 then begin
      Printf.eprintf "fleet: --guests must be >= 1\n";
      exit 2
    end;
    (match hostile with
    | Some h when h < 0 || h >= guests ->
        Printf.eprintf "fleet: --hostile %d is not a guest index (0..%d)\n" h (guests - 1);
        exit 2
    | _ -> ());
    let base =
      { Fleet.default with guests; vcpus; seed; requests; workload; lb; rings; chaos; pulse;
        hostile; mode = (if closed then Fleet.Closed_loop else Fleet.Open_loop) }
    in
    let rate =
      if rate > 0.0 then rate
      else
        let svc = Fleet.calibrate base in
        Fleet.rate_for base ~utilization:util ~mean_service_cycles:svc
    in
    let process =
      match arrivals with
      | `Poisson -> Fleet.Arrival.Poisson { rate }
      | `Mmpp ->
          (* bursty but same mean rate: half-rate troughs (2 ms dwell)
             with 2.25x bursts (0.8 ms dwell) *)
          Fleet.Arrival.Mmpp
            { low = rate /. 2.0; high = rate *. 2.25; dwell_low = 0.002; dwell_high = 0.0008 }
    in
    let cfg = { base with process } in
    let r = Fleet.run cfg in
    if replay then begin
      let r2 = Fleet.run cfg in
      if Fleet.report_json r <> Fleet.report_json r2 then begin
        Printf.eprintf "fleet: REPLAY MISMATCH — identical config produced different reports\n";
        exit 1
      end
    end;
    let buf = Buffer.create 2048 in
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    if json then Buffer.add_string buf (Obs.Json.to_string (Fleet.report_json r))
    else begin
      p "Veil-Fleet — %d guest(s) x %d VCPU(s), %s, %s loop, seed %d\n" guests vcpus
        (Fleet.workload_name workload)
        (if closed then "closed" else "open")
        seed;
      p "offered %.0f rps, achieved %.0f rps, wall %.3f s\n" r.Fleet.r_offered
        r.Fleet.r_throughput
        (Sevsnp.Cycles.seconds_of_cycles r.Fleet.r_wall_cycles);
      p "fleet sojourn (merged histogram): p50 %d  p99 %d  p999 %d  mean %.0f cycles\n"
        r.Fleet.r_p50 r.Fleet.r_p99 r.Fleet.r_p999 r.Fleet.r_mean;
      p "merged-registry digest: %s\n" r.Fleet.r_merged_digest;
      if replay then p "replay check: PASS (byte-identical report on re-run)\n";
      p "\n  %-5s %8s %10s %10s %10s %10s %7s %6s %8s\n" "guest" "reqs" "p50" "p99" "p999"
        "mean-svc" "queue%" "slog" "blocked";
      Array.iter
        (fun g ->
          let w = g.Fleet.gr_wait in
          let qpct =
            if w.Veil_core.Monitor.ws_busy_cycles = 0 then 0.0
            else
              100.0
              *. float_of_int w.Veil_core.Monitor.ws_queued_cycles
              /. float_of_int w.Veil_core.Monitor.ws_busy_cycles
          in
          p "  %-5s %8d %10d %10d %10d %10.0f %6.1f%% %6s %8s\n"
            (Printf.sprintf "%d%s" g.Fleet.gr_id (if g.Fleet.gr_hostile then "!" else ""))
            g.Fleet.gr_requests g.Fleet.gr_p50 g.Fleet.gr_p99 g.Fleet.gr_p999 g.Fleet.gr_mean_svc
            qpct
            (if g.Fleet.gr_slog_ok then "ok" else "BROKEN")
            (if g.Fleet.gr_hostile then string_of_int g.Fleet.gr_blocked else "-"))
        r.Fleet.r_guests;
      match hostile with
      | None -> ()
      | Some h ->
          let atk = r.Fleet.r_guests.(h) in
          p "\nhostile guest %d: %d/%d probes blocked (%s)\n" h atk.Fleet.gr_blocked
            (atk.Fleet.gr_requests + 1)
            (if atk.Fleet.gr_blocked = atk.Fleet.gr_requests + 1 then "all sanitized/faulted"
             else "SOME PROBES LANDED")
    end;
    if out = "-" then print_string (Buffer.contents buf)
    else begin
      write_file_or_die out (Buffer.contents buf);
      Printf.printf "wrote %s\n" out
    end
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Boot N isolated Veil guests behind a simulated load balancer and drive them with \
          open-loop traffic (Poisson or bursty MMPP arrivals, heavy-tailed request sizes); \
          report per-guest and fleet-aggregate throughput and sojourn percentiles from merged \
          histograms, with optional rings, pulse, per-guest chaos plans, a compromised-guest \
          oracle and a replay-identity check.")
    Term.(const run $ guests_arg $ vcpus_arg $ requests_arg $ workload_arg $ arrivals_arg
          $ rate_arg $ util_arg $ closed_arg $ lb_arg $ rings_arg $ chaos_arg $ pulse_arg
          $ hostile_arg $ replay_arg $ json_arg $ fleet_out_arg $ seed_arg)

let main =
  let doc = "drive the Veil protected-services framework on the simulated SEV-SNP platform" in
  Cmd.group
    (Cmd.info "veilctl" ~version:Veil_core.Veil.version ~doc)
    [ boot_cmd; attacks_cmd; ltp_cmd; run_cmd; status_cmd; trace_cmd; profile_cmd; scope_cmd;
      report_cmd; metrics_cmd; migrate_cmd; sql_cmd; chaos_cmd; pulse_cmd; bench_cmd;
      explore_cmd; fleet_cmd ]

let () = exit (Cmd.eval main)
