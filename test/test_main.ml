let () =
  Alcotest.run "veil"
    [
      ("crypto", T_crypto.suite);
      ("sevsnp", T_sevsnp.suite);
      ("hypervisor", T_hv.suite);
      ("kernel", T_kernel.suite);
      ("core", T_core.suite);
      ("sdk", T_sdk.suite);
      ("workloads", T_workloads.suite);
      ("ltp", T_ltp.suite);
      ("attacks", T_attacks.suite);
      ("extensions", T_extensions.suite);
      ("future", T_future.suite);
      ("properties", T_props.suite);
      ("engines", T_engines.suite);
      ("mcache", T_mcache.suite);
      ("kernel-semantics", T_kernel2.suite);
      ("scheduler", T_sched.suite);
      ("smp", T_smp.suite);
      ("facade", T_facade.suite);
      ("obs", T_obs.suite);
      ("json", T_json.suite);
      ("chaos", T_chaos.suite);
      ("ring", T_ring.suite);
      ("pulse", T_pulse.suite);
      ("explore", T_explore.suite);
      ("fleet", T_fleet.suite);
    ]
