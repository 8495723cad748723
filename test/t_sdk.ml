(* Enclave SDK tests: syscall specs, sanitizer, allocator, runtime. *)

module S = Guest_kernel.Sysno
module K = Guest_kernel.Ktypes
module Spec = Enclave_sdk.Spec
module Dl = Enclave_sdk.Dlmalloc
module Rt = Enclave_sdk.Runtime

let q = QCheck_alcotest.to_alcotest

(* --- Spec --- *)

let test_spec_coverage () =
  Alcotest.(check int) "one spec per syscall" S.count (List.length Spec.all);
  Alcotest.(check int) "85 supported (§7)" 85 Spec.supported_count;
  Alcotest.(check int) "11 unsupported" 11 (List.length Spec.unsupported);
  (* the unsupported ones are the process/signal/wait family *)
  List.iter
    (fun sys ->
      Alcotest.(check bool) (S.to_string sys) true (List.mem sys Spec.unsupported))
    [ S.Fork; S.Clone; S.Vfork; S.Execve; S.Wait4; S.Kill; S.Poll; S.Select; S.Futex ]

let test_spec_validate () =
  let spec = Spec.spec_of S.Open in
  Alcotest.(check bool) "valid open args" true
    (Spec.validate_args spec [ K.Str "/x"; K.Int 0; K.Int 0 ] = Ok ());
  Alcotest.(check bool) "wrong type rejected" true
    (Result.is_error (Spec.validate_args spec [ K.Int 1; K.Int 0; K.Int 0 ]));
  Alcotest.(check bool) "missing args rejected" true
    (Result.is_error (Spec.validate_args spec [ K.Str "/x" ]));
  Alcotest.(check bool) "extra args rejected" true
    (Result.is_error (Spec.validate_args spec [ K.Str "/x"; K.Int 0; K.Int 0; K.Int 9 ]));
  (* negative read length fails the len_out shape *)
  Alcotest.(check bool) "negative length rejected" true
    (Result.is_error (Spec.validate_args (Spec.spec_of S.Read) [ K.Int 3; K.Int (-1) ]));
  (* ioctl's trailing args are opaque *)
  Alcotest.(check bool) "ioctl rest" true
    (Spec.validate_args (Spec.spec_of S.Ioctl) [ K.Int 3; K.Int 1; K.Buf Bytes.empty; K.Int 1; K.Int 2 ]
    = Ok ())

let test_spec_copy_sizes () =
  let w = Spec.spec_of S.Write in
  Alcotest.(check int) "write copies fd + buffer" (8 + 100)
    (Spec.copy_in_bytes w [ K.Int 3; K.Buf (Bytes.create 100) ]);
  let o = Spec.spec_of S.Open in
  Alcotest.(check int) "open copies path NUL-terminated" (5 + 8 + 8)
    (Spec.copy_in_bytes o [ K.Str "/tmp"; K.Int 0; K.Int 0 ]);
  Alcotest.(check int) "rbuf out" 64 (Spec.copy_out_bytes (K.RBuf (Bytes.create 64)));
  Alcotest.(check int) "scalar out" 8 (Spec.copy_out_bytes (K.RInt 1))

let test_sanitizer_iago () =
  let mmap = Spec.spec_of S.Mmap in
  let lo = Guest_kernel.Process.enclave_base in
  let hi = lo + (32 * Sevsnp.Types.page_size) in
  Alcotest.(check bool) "pointer outside enclave ok" true
    (Enclave_sdk.Sanitizer.iago_check mmap (K.RInt Guest_kernel.Process.mmap_base) ~enclave_lo:lo
       ~enclave_hi:hi
    = Ok ());
  Alcotest.(check bool) "pointer into enclave rejected" true
    (Result.is_error
       (Enclave_sdk.Sanitizer.iago_check mmap (K.RInt (lo + 4096)) ~enclave_lo:lo ~enclave_hi:hi));
  Alcotest.(check bool) "unaligned mmap result rejected" true
    (Result.is_error (Enclave_sdk.Sanitizer.iago_check mmap (K.RInt 0x1234567) ~enclave_lo:lo ~enclave_hi:hi));
  (* non-address returns unaffected *)
  let read = Spec.spec_of S.Read in
  Alcotest.(check bool) "read buffers pass" true
    (Enclave_sdk.Sanitizer.iago_check read (K.RBuf (Bytes.create 8)) ~enclave_lo:lo ~enclave_hi:hi = Ok ());
  Alcotest.(check bool) "documented refinements exist" true
    (List.length Enclave_sdk.Sanitizer.refinements >= 5)

(* --- Dlmalloc --- *)

let test_dlmalloc_basic () =
  let h = Dl.create ~base:0x1000 ~size:4096 in
  let a = Option.get (Dl.malloc h 100) in
  let b = Option.get (Dl.malloc h 200) in
  Alcotest.(check bool) "aligned" true (a mod 16 = 0 && b mod 16 = 0);
  Alcotest.(check bool) "disjoint" true (b >= a + 100 || a >= b + 200);
  Dl.free h a;
  let c = Option.get (Dl.malloc h 50) in
  Alcotest.(check int) "freed space reused" a c;
  Alcotest.check_raises "double free"
    (Invalid_argument (Printf.sprintf "Dlmalloc.free: 0x%x is not a live allocation" a))
    (fun () ->
      Dl.free h a;
      Dl.free h a)

let test_dlmalloc_exhaustion () =
  let h = Dl.create ~base:0x1000 ~size:256 in
  Alcotest.(check bool) "fits" true (Dl.malloc h 200 <> None);
  Alcotest.(check (option int)) "exhausted" None (Dl.malloc h 200);
  Alcotest.(check (option int)) "zero-size returns None" None (Dl.malloc h 0)

let test_dlmalloc_coalescing () =
  let h = Dl.create ~base:0x1000 ~size:1024 in
  let blocks = List.init 4 (fun _ -> Option.get (Dl.malloc h 256 |> fun x -> if x = None then Dl.malloc h 240 else x)) in
  List.iter (Dl.free h) blocks;
  Alcotest.(check bool) "fully coalesced: big alloc fits again" true (Dl.malloc h 1000 <> None)

let dlmalloc_model =
  QCheck.Test.make ~name:"dlmalloc random ops keep invariants" ~count:60
    (QCheck.make QCheck.Gen.(list_size (1 -- 80) (pair bool (1 -- 300))))
    (fun ops ->
      let h = Dl.create ~base:0x4000 ~size:8192 in
      let live = ref [] in
      List.iter
        (fun (do_free, size) ->
          if do_free && !live <> [] then begin
            let a = List.hd !live in
            live := List.tl !live;
            Dl.free h a
          end
          else begin
            match Dl.malloc h size with Some a -> live := !live @ [ a ] | None -> ()
          end)
        ops;
      Dl.check_invariants h)

let dlmalloc_no_overlap =
  QCheck.Test.make ~name:"dlmalloc live blocks never overlap" ~count:60
    (QCheck.make QCheck.Gen.(list_size (1 -- 40) (1 -- 200)))
    (fun sizes ->
      let h = Dl.create ~base:0x4000 ~size:16384 in
      let blocks = List.filter_map (fun s -> Option.map (fun a -> (a, s)) (Dl.malloc h s)) sizes in
      List.for_all
        (fun (a, sa) ->
          List.for_all (fun (b, sb) -> a = b || a + sa <= b || b + sb <= a) blocks)
        blocks)

(* --- Runtime --- *)

let boot () = Veil_core.Boot.boot_veil ~npages:2048 ~seed:29 ()

let mk_rt sys =
  let proc = Guest_kernel.Kernel.spawn sys.Veil_core.Boot.kernel in
  match Rt.create sys ~binary:(Bytes.make 6000 'R') proc with
  | Ok rt -> rt
  | Error e -> Alcotest.fail e

let test_runtime_ocall_file () =
  let sys = boot () in
  let rt = mk_rt sys in
  Rt.run rt (fun rt ->
      match Enclave_sdk.Libc.open_ rt "/tmp/rt.txt" ~flags:(Enclave_sdk.Libc.o_creat lor Enclave_sdk.Libc.o_rdwr) ~mode:0o600 with
      | Error e -> Alcotest.failf "open: %s" (K.errno_to_string e)
      | Ok fd ->
          (match Enclave_sdk.Libc.write rt fd (Bytes.of_string "written from the enclave") with
          | Ok 24 -> ()
          | _ -> Alcotest.fail "write");
          ignore (Enclave_sdk.Libc.lseek rt fd 0 K.SEEK_SET);
          (match Enclave_sdk.Libc.read rt fd 7 with
          | Ok b -> Alcotest.(check bytes) "read back" (Bytes.of_string "written") b
          | Error _ -> Alcotest.fail "read");
          ignore (Enclave_sdk.Libc.close rt fd));
  let st = Rt.stats rt in
  Alcotest.(check bool) "ocalls counted" true (st.Rt.ocalls >= 4);
  Alcotest.(check bool) "each ocall exits once" true (st.Rt.enclave_exits >= st.Rt.ocalls);
  Alcotest.(check bool) "redirect work accounted" true (st.Rt.redirect_cycles > 0 && st.Rt.redirect_bytes > 0);
  Alcotest.(check int) "exit cycles = 14270/ocall-pair" (st.Rt.enclave_exits + st.Rt.enclave_entries)
    (st.Rt.exit_cycles / 7135)

let test_runtime_unsupported_kills () =
  let sys = boot () in
  let rt = mk_rt sys in
  (try
     Rt.run rt (fun rt -> ignore (Rt.ocall rt S.Fork []));
     Alcotest.fail "fork must kill the enclave"
   with Rt.Enclave_killed _ -> ());
  Alcotest.(check bool) "left the enclave" false (Rt.inside rt);
  (* a killed enclave cannot be re-entered *)
  try
    Rt.run rt (fun _ -> ());
    Alcotest.fail "killed enclave re-entered"
  with Rt.Enclave_killed _ -> ()

let test_runtime_bad_args_einval () =
  let sys = boot () in
  let rt = mk_rt sys in
  Rt.run rt (fun rt ->
      match Rt.ocall rt S.Open [ K.Int 1 ] with
      | K.RErr K.EINVAL -> ()
      | r -> Alcotest.failf "expected EINVAL, got %a" K.pp_ret r)

let test_runtime_iago_on_mmap () =
  let sys = boot () in
  let rt = mk_rt sys in
  Rt.run rt (fun rt ->
      (* normal mmap returns an address outside the enclave *)
      match Enclave_sdk.Libc.mmap rt ~len:8192 ~prot:3 with
      | Ok va ->
          let lo, hi = Rt.enclave_range rt in
          Alcotest.(check bool) "outside enclave" true (va + 8192 <= lo || va >= hi)
      | Error e -> Alcotest.failf "mmap: %s" (K.errno_to_string e))

let test_runtime_malloc () =
  let sys = boot () in
  let rt = mk_rt sys in
  Rt.run rt (fun rt ->
      let a = Option.get (Rt.malloc rt 256) in
      let lo, hi = Rt.enclave_range rt in
      Alcotest.(check bool) "heap inside enclave" true (a >= lo && a < hi);
      Rt.write_data rt ~va:a (Bytes.of_string "malloc'd");
      Alcotest.(check bytes) "usable" (Bytes.of_string "malloc'd") (Rt.read_data rt ~va:a ~len:8);
      Rt.free rt a)

let test_runtime_sockets_via_libc () =
  let sys = boot () in
  (* server runs natively, client inside the enclave *)
  let kernel = sys.Veil_core.Boot.kernel in
  let sproc = Guest_kernel.Kernel.spawn kernel in
  let sysn s a = Guest_kernel.Kernel.invoke kernel sproc s a in
  let srv = match sysn S.Socket [ K.Int 2; K.Int 1; K.Int 0 ] with K.RInt n -> n | _ -> Alcotest.fail "s" in
  ignore (sysn S.Bind [ K.Int srv; K.Int 4242 ]);
  ignore (sysn S.Listen [ K.Int srv; K.Int 4 ]);
  let rt = mk_rt sys in
  Rt.run rt (fun rt ->
      let fd = match Enclave_sdk.Libc.socket rt with Ok n -> n | Error _ -> Alcotest.fail "socket" in
      (match Enclave_sdk.Libc.connect rt fd ~port:4242 with Ok () -> () | Error _ -> Alcotest.fail "connect");
      (match Enclave_sdk.Libc.send rt fd (Bytes.of_string "from enclave") with
      | Ok 12 -> ()
      | _ -> Alcotest.fail "send"));
  let conn = match sysn S.Accept [ K.Int srv ] with K.RInt n -> n | _ -> Alcotest.fail "accept" in
  match sysn S.Recvfrom [ K.Int conn; K.Int 64 ] with
  | K.RBuf b -> Alcotest.(check bytes) "received" (Bytes.of_string "from enclave") b
  | r -> Alcotest.failf "recv: %a" K.pp_ret r

let test_runtime_printf_console () =
  let sys = boot () in
  let rt = mk_rt sys in
  Rt.run rt (fun rt -> Enclave_sdk.Libc.printf rt "value=%d\n" 42);
  let console = Guest_kernel.Fs.console_output (Guest_kernel.Kernel.fs sys.Veil_core.Boot.kernel) in
  Alcotest.(check string) "console output" "value=42\n" console

(* Pids are numbered per guest kernel, so the console fd is cached per
   enclave: two guests' enclaves with the same pid each print to their
   own console. *)
let test_runtime_printf_per_guest () =
  let console sys = Guest_kernel.Fs.console_output (Guest_kernel.Kernel.fs sys.Veil_core.Boot.kernel) in
  let a = boot () in
  let b = boot () in
  let rt_a = mk_rt a in
  let rt_b = mk_rt b in
  Alcotest.(check int) "same pid in both guests" (Rt.proc rt_a).Guest_kernel.Process.pid
    (Rt.proc rt_b).Guest_kernel.Process.pid;
  Rt.run rt_a (fun rt -> Enclave_sdk.Libc.printf rt "hello A\n");
  Rt.run rt_b (fun rt -> Enclave_sdk.Libc.printf rt "hello B\n");
  Alcotest.(check string) "guest A's console" "hello A\n" (console a);
  Alcotest.(check string) "guest B's console" "hello B\n" (console b)

let suite =
  [
    ("spec covers all 96 calls / 85 supported", `Quick, test_spec_coverage);
    ("spec argument validation", `Quick, test_spec_validate);
    ("spec copy sizes", `Quick, test_spec_copy_sizes);
    ("sanitizer IAGO checks", `Quick, test_sanitizer_iago);
    ("dlmalloc basics", `Quick, test_dlmalloc_basic);
    ("dlmalloc exhaustion", `Quick, test_dlmalloc_exhaustion);
    ("dlmalloc coalescing", `Quick, test_dlmalloc_coalescing);
    q dlmalloc_model;
    q dlmalloc_no_overlap;
    ("runtime ocall file io + accounting", `Quick, test_runtime_ocall_file);
    ("runtime unsupported call kills enclave", `Quick, test_runtime_unsupported_kills);
    ("runtime bad args -> EINVAL", `Quick, test_runtime_bad_args_einval);
    ("runtime IAGO-checked mmap", `Quick, test_runtime_iago_on_mmap);
    ("runtime in-enclave malloc", `Quick, test_runtime_malloc);
    ("runtime sockets via libc", `Quick, test_runtime_sockets_via_libc);
    ("runtime printf to console", `Quick, test_runtime_printf_console);
    ("runtime printf: each guest its own console", `Quick, test_runtime_printf_per_guest);
  ]
